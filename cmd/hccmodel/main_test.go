package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

func runModel(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGoldenOutput pins the CLI's stdout byte for byte: one application in
// the default comparison, one UVM application on another platform and mode,
// and the whole-suite summary.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"3dconv", []string{"-app", "3dconv"}},
		{"gemm-uvm-b300", []string{"-app", "gemm", "-uvm", "-mode", "tee-io-bridge+pipelined", "-platform", "b300-bridge"}},
		{"suite", nil},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, got, stderr := runModel(t, c.args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
			}
			path := filepath.Join("testdata", c.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from %s (rerun with -update after an intended change)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"unknown app", []string{"-app", "nosuch"}, 1, `unknown application "nosuch"`},
		{"unknown mode", []string{"-mode", "cc"}, 1, `unknown mode "cc"`},
		{"unknown platform", []string{"-platform", "a100"}, 1, `unknown platform "a100"`},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runModel(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.message) {
				t.Errorf("stderr %q does not mention %q", stderr, c.message)
			}
			if stdout != "" {
				t.Errorf("a failed run wrote to stdout: %q", stdout)
			}
		})
	}
}
