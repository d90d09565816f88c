package main

import "testing"

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"0/1", 0, 1, true},
		{"1/2", 1, 2, true},
		{"3/1", 0, 0, false},
		{"2/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"1/0", 0, 0, false},
		{"1/2junk", 0, 0, false},
		{"1", 0, 0, false},
		{"", 0, 0, false},
	} {
		i, n, err := parseShard(tc.in)
		if (err == nil) != tc.ok || i != tc.i || n != tc.n {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, i, n, err, tc.i, tc.n, tc.ok)
		}
	}
}
