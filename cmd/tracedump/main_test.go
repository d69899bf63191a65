package main

import "testing"

func TestCheckCountsRejectsNegative(t *testing.T) {
	for _, c := range []struct {
		n, skip int
		ok      bool
	}{
		{50, 0, true},
		{0, 0, true},
		{-1, 0, false},
		{2, -5, false},
		{-1, -1, false},
	} {
		if err := checkCounts(c.n, c.skip); (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok %v", c.n, c.skip, err, c.ok)
		}
	}
}
