package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionHygiene checks the directive rules: a reasoned directive
// suppresses its diagnostic, a reasonless one suppresses nothing and is
// itself reported, and a directive matching no diagnostic is reported as
// unused.
func TestSuppressionHygiene(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

import "time"

// Bare has a suppression without a reason: the diagnostic survives and the
// directive is reported.
func Bare() time.Time {
	//hcclint:ignore nondeterminism
	return time.Now()
}

// Explained is suppressed by a reasoned directive.
func Explained() time.Time {
	//hcclint:ignore nondeterminism test demonstrates a reasoned suppression
	return time.Now()
}

// Idle carries a directive that suppresses nothing.
func Idle() int {
	//hcclint:ignore nondeterminism nothing here actually trips the analyzer
	return 1
}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader().LoadDir(dir, "fixture/suppress")
	if err != nil {
		t.Fatal(err)
	}
	pkg.Deterministic, pkg.Library = true, true
	diags := Run([]*Package{pkg}, []*Analyzer{Nondeterminism})

	var got []string
	for _, d := range diags {
		got = append(got, "["+d.Analyzer+"] "+d.Message)
	}
	expectOne(t, got, "[nondeterminism] time.Now")   // Bare's survives
	expectOne(t, got, "needs a reason")              // Bare's directive
	expectOne(t, got, "unused suppression")          // Idle's directive
	if n := count(got, "[nondeterminism]"); n != 1 { // Explained's is gone
		t.Errorf("want exactly 1 surviving nondeterminism diagnostic, got %d: %v", n, got)
	}
	if len(diags) != 3 {
		t.Errorf("want 3 diagnostics total, got %d: %v", len(diags), got)
	}
}

func expectOne(t *testing.T, got []string, substr string) {
	t.Helper()
	if count(got, substr) != 1 {
		t.Errorf("want exactly one diagnostic containing %q, got: %v", substr, got)
	}
}

func count(got []string, substr string) int {
	n := 0
	for _, g := range got {
		if strings.Contains(g, substr) {
			n++
		}
	}
	return n
}

func TestClassify(t *testing.T) {
	cases := []struct {
		path          string
		deterministic bool
		library       bool
	}{
		{"hccsim", true, true},
		{"hccsim/internal/sim", true, true},
		{"hccsim/internal/batch", true, true},
		{"hccsim/internal/swcrypto", true, true},
		{"hccsim/internal/trace", true, true},
		{"hccsim/internal/cuda", true, true},
		{"hccsim/internal/hbm", false, true},
		{"hccsim/internal/tab", false, true},
		{"hccsim/cmd/hccsweep", false, false},
		{"hccsim/examples/quickstart", false, false},
	}
	for _, c := range cases {
		det, lib := Classify(c.path)
		if det != c.deterministic || lib != c.library {
			t.Errorf("Classify(%q) = (%v, %v), want (%v, %v)", c.path, det, lib, c.deterministic, c.library)
		}
	}
}
