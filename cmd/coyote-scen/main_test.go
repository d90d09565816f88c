package main

import (
	"slices"
	"testing"
)

func TestParseMargins(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		ok   bool
	}{
		{"1,2", []float64{1, 2}, true},
		{" 1, ,2 ", []float64{1, 2}, true},
		{"0.5", nil, false},
		{"x", nil, false},
	} {
		got, err := parseMargins(tc.in)
		if (err == nil) != tc.ok || !slices.Equal(got, tc.want) {
			t.Errorf("parseMargins(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
