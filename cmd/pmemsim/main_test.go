package main

import (
	"strings"
	"testing"
)

func TestCheckCoresFlag(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // error substring; "" means accepted
	}{
		{0, ""},
		{1, ""},
		{4, ""},
		{64, ""},
		{-1, "must be in [1, 64]"},
		{128, "must be in [1, 64]"},
		{3, "power of two"},
		{48, "power of two"},
	} {
		err := checkCoresFlag(tc.n)
		if !matches(err, tc.want) {
			t.Errorf("checkCoresFlag(%d) = %v, want error containing %q", tc.n, err, tc.want)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-cores: ") {
			t.Errorf("checkCoresFlag(%d) = %q, want it to name the flag", tc.n, err)
		}
	}
}

func TestCheckSampleEveryFlag(t *testing.T) {
	for _, tc := range []struct {
		metricsOut string
		every      uint64
		want       string
	}{
		{"", 0, ""},
		{"", 1000, ""},
		{"m.csv", 1, ""},
		{"m.csv", 1000, ""},
		{"m.csv", 0, "-sample-every 0 takes no samples for -metrics-out m.csv"},
	} {
		err := checkSampleEveryFlag(tc.metricsOut, tc.every)
		if !matches(err, tc.want) {
			t.Errorf("checkSampleEveryFlag(%q, %d) = %v, want error containing %q", tc.metricsOut, tc.every, err, tc.want)
		}
	}
}

// matches reports whether err is nil when want is empty, and otherwise
// whether err contains want.
func matches(err error, want string) bool {
	if want == "" {
		return err == nil
	}
	return err != nil && strings.Contains(err.Error(), want)
}
