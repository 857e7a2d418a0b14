package main

import (
	"bytes"
	"path/filepath"
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

// TestUnknownNameIsUsageError: a mistyped -configs or -workload name
// exits 2 with the valid names, as in the other commands, before any
// program is checked; an unreadable -file is a failed run and exits 1.
func TestUnknownNameIsUsageError(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-workload", "all", "-configs", "bogus"}, 2, `unknown config "bogus" (have: ideal-4x4,`},
		{[]string{"-workload", "bogus"}, 2, `unknown workload "bogus" (have: compress,`},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.s")}, 1, "missing.s"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", c.args, stdout.String())
		}
	}
}
