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

func runTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGoldenOutput pins the CLI's stdout byte for byte: the application
// list, the default report under a protection mode, the event dump, a UVM
// Gantt timeline, the span summary, and the JSON and Chrome traces written
// to stdout (one of them a UVM run's, with its paging track).
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"list", []string{"-list"}},
		{"sc-tdx", []string{"-app", "sc", "-mode", "tdx-h100"}},
		{"2mm-events", []string{"-app", "2mm", "-events"}},
		{"2dconv-uvm-gantt", []string{"-app", "2dconv", "-uvm", "-mode", "tee-io-bridge+pipelined", "-gantt"}},
		{"3dconv-summary", []string{"-app", "3dconv", "-summary", "-mode", "tee-io-direct"}},
		{"atax-json", []string{"-app", "atax", "-json", "-"}},
		{"bicg-trace", []string{"-app", "bicg", "-trace", "-"}},
		{"2dconv-uvm-trace", []string{"-app", "2dconv", "-uvm", "-trace", "-"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, got, stderr := runTrace(t, c.args...)
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
		{"no uvm variant", []string{"-app", "2mm", "-uvm"}, 1, "2mm has no UVM variant"},
		{"unknown mode", []string{"-mode", "cc"}, 1, `unknown mode "cc"`},
		{"unwritable json", []string{"-app", "atax", "-json", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, 1, "no such file or directory"},
		{"unwritable trace", []string{"-app", "atax", "-trace", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, 1, "no such file or directory"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runTrace(t, c.args...)
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

// TestFileOutputs writes both traces to files: stdout keeps the report and
// names each file, the JSON file holds what "-json -" prints, and the
// Chrome trace is not empty.
func TestFileOutputs(t *testing.T) {
	dir := t.TempDir()
	jsonPath, chromePath := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.chrome.json")
	code, stdout, stderr := runTrace(t, "-app", "atax", "-json", jsonPath, "-trace", chromePath)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"chrome trace written to " + chromePath, "trace written to " + jsonPath, "atax [non-uvm, mode off"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout does not mention %q:\n%s", want, stdout)
		}
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, want, _ := runTrace(t, "-app", "atax", "-json", "-"); string(got) != want {
		t.Error("-json file differs from -json - output")
	}
	if fi, err := os.Stat(chromePath); err != nil || fi.Size() == 0 {
		t.Errorf("chrome trace file missing or empty: %v", err)
	}
}
