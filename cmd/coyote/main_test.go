package main

import "testing"

func TestCheckOutputs(t *testing.T) {
	for _, tc := range []struct {
		virtual int
		msgOut  string
		ok      bool
	}{
		{0, "", true},
		{3, "", true},
		{3, "lsas.json", true},
		{0, "lsas.json", false},
		{-1, "lsas.json", false},
	} {
		if err := checkOutputs(tc.virtual, tc.msgOut); (err == nil) != tc.ok {
			t.Errorf("checkOutputs(%d, %q) = %v; want ok=%v", tc.virtual, tc.msgOut, err, tc.ok)
		}
	}
}
