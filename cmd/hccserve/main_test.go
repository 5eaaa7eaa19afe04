package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden session outputs")

// session is a small two-mode, one-rate run with the capacity search on:
// enough to exercise the load table, the capacity table and both output
// encoders in well under a second.
var session = []string{"-modes", "off,tdx-h100", "-rates", "1", "-requests", "20"}

func runServe(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGoldenSession pins the CLI's stdout for a small session in the table
// and json formats byte for byte.
func TestGoldenSession(t *testing.T) {
	for _, format := range []string{"table", "json"} {
		t.Run(format, func(t *testing.T) {
			code, got, stderr := runServe(t, append(session, "-format", format)...)
			if code != 0 {
				t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
			}
			path := filepath.Join("testdata", "session."+format+".golden")
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
		{"bad rate", []string{"-rates", "1,fast"}, 1, `rate "fast" must be a positive number`},
		{"zero rate", []string{"-rates", "0"}, 1, `rate "0" must be a positive number`},
		{"empty rates", []string{"-rates", " , "}, 1, "-rates is empty"},
		{"bad mode", []string{"-modes", "off,cc"}, 1, `invalid -modes entry "cc"`},
		{"empty modes", []string{"-modes", ","}, 1, "-modes is empty"},
		{"bad platform", []string{"-platform", "a100"}, 1, "invalid -platform"},
		{"bad format", []string{"-modes", "off", "-rates", "1", "-requests", "4", "-capacity=false", "-format", "xml"},
			1, `unknown format "xml"`},
		{"unwritable output", []string{"-modes", "off", "-rates", "1", "-requests", "4", "-capacity=false",
			"-o", filepath.Join(t.TempDir(), "no", "such", "dir.txt")}, 1, "no such file or directory"},
		{"unknown flag", []string{"-qps", "1"}, 2, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runServe(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, c.code, stderr)
			}
			if !strings.Contains(stderr, c.message) {
				t.Errorf("stderr %q does not mention %q", stderr, c.message)
			}
			if c.code == 2 && stdout != "" {
				t.Errorf("flag error wrote to stdout: %q", stdout)
			}
		})
	}
}
