package main

import (
	"strings"
	"testing"
)

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
