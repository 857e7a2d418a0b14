package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeParIsUsageError: a negative -par exits 2 with a message
// naming the flag and its range, instead of running serially.
func TestNegativeParIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "table1", "-par", "-2"}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if want := "-par must be >= 0 (0 = one per CPU), got -2"; !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed a table:\n%s", args, stdout.String())
	}
}

// TestUnknownExperimentListsAll: an unknown -run name exits 2 and the
// error lists every experiment -run accepts, the two studies a plain run
// skips included.
func TestUnknownExperimentListsAll(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "bogus"}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	for _, name := range []string{"table1", "profile", "schedgap", "staticbound"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("%v: stderr %q does not list %q", args, stderr.String(), name)
		}
	}
}

// TestUnknownExperimentBeforeAnyRun: every -run name is checked before
// any experiment runs, so a bad name late in the list exits 2 without
// printing the tables of the names before it.
func TestUnknownExperimentBeforeAnyRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "table1,bogus"}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed before refusing the name:\n%s", args, stdout.String())
	}
	if want := `unknown experiment "bogus"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr %q does not say %q", args, stderr.String(), want)
	}
}
