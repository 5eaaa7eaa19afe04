package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

func runSweep(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// grid is a small serial sweep: two workloads, two modes and two PCIe
// bandwidths, enough to fill the sweep table and the ratio table.
var grid = []string{"-workloads", "2mm,gesummv", "-modes", "off,tdx-h100", "-param", "PCIeGBps=8,16", "-parallel", "1"}

// TestGoldenOutput pins the CLI's stdout byte for byte: the grid in every
// output format, and the parameter list. Only stdout is compared; the
// summary line on stderr carries the wall time.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"grid.table", append(grid, "-format", "table")},
		{"grid.csv", append(grid, "-format", "csv")},
		{"grid.json", append(grid, "-format", "json")},
		{"list-params", []string{"-list-params"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, got, stderr := runSweep(t, c.args...)
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
	one := []string{"-workloads", "gesummv", "-modes", "off"}
	cases := []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"bad param", append(one, "-param", "NoSuchParam=1"), 1, `unknown config parameter "NoSuchParam"`},
		{"legacy mode", []string{"-workloads", "gesummv", "-modes", "cc"}, 1, `unknown mode "cc"`},
		{"unwritable output", append(one, "-o", filepath.Join(t.TempDir(), "no", "such", "dir.txt")), 1, "no such file or directory"},
		{"nothing to run", []string{"-modes", "off"}, 2, "nothing to run"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"figures flag", []string{"-figures", "all"}, 2, "flag provided but not defined: -figures"},
		{"platforms flag", []string{"-platforms", "h100-tdx"}, 2, "flag provided but not defined: -platforms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runSweep(t, c.args...)
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

// TestDuplicateJobsRunOnce: axes that repeat a job (a repeated value, two
// spellings of one platform, a cc.mode axis over the -modes list) run it
// once, the first one listed, so stdout is the same at any -parallel level.
func TestDuplicateJobsRunOnce(t *testing.T) {
	cases := []struct {
		name string
		args []string
		rows int
	}{
		{"repeated value", []string{"-workloads", "gesummv", "-modes", "off", "-param", "PCIeGBps=16,16"}, 1},
		{"platform alias", []string{"-workloads", "2mm,gesummv", "-modes", "off,tdx-h100", "-param", "hw.platform=h100-tdx,default"}, 4},
		{"mode axis over modes", []string{"-workloads", "2mm,gesummv", "-modes", "off,tdx-h100", "-param", "cc.mode=off"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var outs []string
			for _, parallel := range []string{"1", "4"} {
				code, stdout, stderr := runSweep(t, slices.Concat(c.args, []string{"-format", "csv", "-parallel", parallel})...)
				if code != 0 {
					t.Fatalf("-parallel %s: exit %d\nstderr: %s", parallel, code, stderr)
				}
				outs = append(outs, stdout)
			}
			if outs[0] != outs[1] {
				t.Errorf("stdout differs between -parallel 1 and 4:\n%s\nvs\n%s", outs[0], outs[1])
			}
			if rows := strings.Count(outs[0], "\n") - 1; rows != c.rows {
				t.Errorf("%d job rows, want %d:\n%s", rows, c.rows, outs[0])
			}
		})
	}
}

func TestParseModes(t *testing.T) {
	cases := []struct {
		in   string
		want []string // nil: rejected
	}{
		{"off,tdx-h100", []string{"off", "tdx-h100"}},
		{"tdx", []string{"tdx-h100"}},
		{" tee-io-bridge+pipelined , off", []string{"tee-io-bridge+pipelined", "off"}},
		{"cc", nil},
		{"base", nil},
		{"off,cc", nil},
		{"", nil},
	}
	for _, c := range cases {
		got, err := parseModes(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseModes(%q) = %v, want an error", c.in, got)
				continue
			}
			_, list, _ := strings.Cut(err.Error(), "want one of ")
			if want := strings.Join(ccmode.Names(), ", ") + ", optionally"; !strings.HasPrefix(list, want) {
				t.Errorf("parseModes(%q) error %q should list exactly the canonical mode names", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseModes(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseModes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
