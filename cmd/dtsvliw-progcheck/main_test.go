package main

import (
	"bytes"
	"strings"
	"testing"
)

// wantUsageError runs the command on args and requires exit 2, a
// message containing want, and no report.
func wantUsageError(t *testing.T, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed a report:\n%s", args, stdout.String())
	}
}

// TestNegativeProgenIsUsageError: a negative -progen exits 2 with a
// message naming the flag and its range, instead of falling through to
// the workload report.
func TestNegativeProgenIsUsageError(t *testing.T) {
	wantUsageError(t, []string{"-progen", "-5"}, "-progen must be >= 0, got -5")
}

// TestNWinOutOfRangeIsUsageError: a -nwin outside SPARC V7's 2 to 32
// register windows exits 2 with a message naming the flag and its
// range, instead of running with a window count no machine has.
func TestNWinOutOfRangeIsUsageError(t *testing.T) {
	for _, n := range []string{"-5", "0", "1", "33", "1000"} {
		wantUsageError(t, []string{"-nwin", n},
			"-nwin must be 2 to 32 (SPARC V7 register windows), got "+n)
	}
}
