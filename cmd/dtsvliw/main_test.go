package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: an unknown workload and a configuration the
// machine refuses are usage errors: exit 2, a message naming the
// problem, and no statistics.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-workload", "compress", "-strategy", "bogus"}, "no such strategy"},
		{[]string{"-workload", "compress", "-width", "0"}, "Width 0 invalid"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed statistics:\n%s", tc.args, stdout.String())
		}
	}
}

// TestCleanRun: a capped workload run exits 0 and prints its statistics.
func TestCleanRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "compress", "-max", "20000"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "IPC:") {
		t.Errorf("%v: no IPC line in\n%s", args, stdout.String())
	}
}
