package figures

import (
	"testing"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/workloads"
)

// TestModeSpellingPlatformIdentity extends the spelling-identity contract
// to the platform axis (the name matches the `make golden` run pattern):
// naming the default platform explicitly must simulate byte-identically to
// the legacy constructors, so the committed goldens anchor the
// post-platform-refactor output too.
func TestModeSpellingPlatformIdentity(t *testing.T) {
	for _, mode := range []string{"off", "tdx-h100", "tee-io-bridge"} {
		implicit, err := cuda.NewConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := cuda.PlatformConfig("h100-tdx", mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"gemm", "2dconv"} {
			spec := mustWorkload(app)
			a := workloads.Execute(spec, workloads.CopyExecute, implicit)
			b := workloads.Execute(spec, workloads.CopyExecute, explicit)
			if a.End != b.End {
				t.Errorf("%s/%s: explicit h100-tdx drifted: %v vs %v",
					mode, app, time.Duration(a.End), time.Duration(b.End))
			}
		}
	}
}

// TestExtPlatformsFor pins the hccreport appendix path: the restricted
// figure carries exactly the requested columns and rejects unknown names.
func TestExtPlatformsFor(t *testing.T) {
	tab, err := ExtPlatformsFor([]string{"h100-tdx", "b300"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"metric", "h100-tdx", "b300-bridge"}
	if len(tab.Columns) != len(want) {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for i, c := range want {
		if tab.Columns[i] != c {
			t.Errorf("column %d = %q, want %q", i, tab.Columns[i], c)
		}
	}
	if _, err := ExtPlatformsFor([]string{"nonesuch"}); err == nil {
		t.Error("unknown platform accepted")
	}
}
