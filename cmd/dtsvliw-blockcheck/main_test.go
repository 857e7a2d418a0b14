package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeParIsUsageError: a negative -par exits 2 with a message
// naming the flag and its range, before any program is checked.
func TestNegativeParIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "all", "-par", "-2"}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if want := "-par must be >= 0 (0 = one per CPU), got -2"; !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed a report:\n%s", args, stdout.String())
	}
}
