package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeProgenIsUsageError: a negative -progen exits 2 with a
// message naming the flag and its range, instead of falling through to
// the workload report.
func TestNegativeProgenIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-progen", "-5"}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if want := "-progen must be >= 0, got -5"; !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed a report:\n%s", args, stdout.String())
	}
}
