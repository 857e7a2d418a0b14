package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeCountsAreUsageErrors: a count flag below its range (a
// negative -n, -par or -shrink, a -maxfail below 1) exits 2 with a
// message naming the flag and its range, before any program is checked.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-3", "-par", "4"}, "-n must be >= 0, got -3"},
		{[]string{"-n", "5", "-par", "-2"}, "-par must be >= 0 (0 = one per CPU), got -2"},
		{[]string{"-n", "5", "-maxfail", "-4"}, "-maxfail must be >= 1, got -4"},
		{[]string{"-n", "5", "-maxfail", "0"}, "-maxfail must be >= 1, got 0"},
		{[]string{"-n", "5", "-shrink", "-9"}, "-shrink must be >= 0 (0 = default), got -9"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", c.args, stdout.String())
		}
	}
}
