package batch

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hccsim/internal/cuda"
)

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("PCIeGBps=8,16, 32")
	if err != nil {
		t.Fatal(err)
	}
	want := Axis{Param: "PCIe.EffectiveGBps", Values: []float64{8, 16, 32}}
	if !reflect.DeepEqual(ax, want) {
		t.Fatalf("ParseAxis = %+v, want %+v", ax, want)
	}

	// Explicit paths and concatenated spellings canonicalize the same way.
	for _, spec := range []string{"PCIe.EffectiveGBps=8", "PCIeEffectiveGBps=8"} {
		ax, err := ParseAxis(spec)
		if err != nil {
			t.Fatalf("ParseAxis(%q): %v", spec, err)
		}
		if ax.Param != "PCIe.EffectiveGBps" {
			t.Errorf("ParseAxis(%q).Param = %q, want PCIe.EffectiveGBps", spec, ax.Param)
		}
	}
}

func TestParseAxisMalformed(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"PCIeGBps", "want Name=v1,v2"},         // no '='
		{"=8,16", "want Name=v1,v2"},            // empty name
		{"PCIeGBps=", "want Name=v1,v2"},        // empty value list
		{"PCIeGBps=  ", "want Name=v1,v2"},      // blank value list
		{"PCIeGBps=8,fast", `bad value "fast"`}, // non-numeric value
		{"PCIeGBps=8,,16", `bad value ""`},      // empty grid cell
	}
	for _, c := range cases {
		_, err := ParseAxis(c.spec)
		if err == nil {
			t.Errorf("ParseAxis(%q): want error, got nil", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseAxis(%q) error %q does not mention %q", c.spec, err, c.wantSub)
		}
	}
}

func TestParseAxisUnknownParam(t *testing.T) {
	_, err := ParseAxis("PCIeBandwidth=8,16")
	if err == nil {
		t.Fatal("want error for unknown parameter")
	}
	// The error must teach the fix: name the bad parameter and suggest the
	// alias table.
	for _, sub := range []string{"PCIeBandwidth", "PCIeGBps", "HBMGBps"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("unknown-param error %q does not mention %q", err, sub)
		}
	}
}

func TestParseAxesDuplicates(t *testing.T) {
	// Same spelling twice.
	_, err := ParseAxes([]string{"PCIeGBps=8", "PCIeGBps=16"})
	if err == nil || !strings.Contains(err.Error(), "duplicate sweep axis") {
		t.Fatalf("want duplicate-axis error, got %v", err)
	}

	// Alias and canonical path collide after canonicalization.
	_, err = ParseAxes([]string{"PCIeGBps=8", "PCIe.EffectiveGBps=16"})
	if err == nil || !strings.Contains(err.Error(), "duplicate sweep axis") {
		t.Fatalf("want duplicate-axis error across spellings, got %v", err)
	}
	if !strings.Contains(err.Error(), "PCIeGBps") || !strings.Contains(err.Error(), "PCIe.EffectiveGBps") {
		t.Errorf("cross-spelling error %q should name both spellings", err)
	}

	// Distinct axes pass.
	axes, err := ParseAxes([]string{"PCIeGBps=8,16", "Hypercall=20000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(axes) != 2 || axes[0].Param != "PCIe.EffectiveGBps" || axes[1].Param != "TDX.Hypercall" {
		t.Fatalf("ParseAxes = %+v", axes)
	}
}

func TestCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"PCIeGBps", "PCIe.EffectiveGBps"},
		{"Hypercall", "TDX.Hypercall"},
		{"TDX.Hypercall", "TDX.Hypercall"},
		{"UVMBatchPagesCC", "UVM.BatchPagesCC"},
	}
	for _, c := range cases {
		got, err := Canonical(c.in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := Canonical("NoSuchKnob"); err == nil {
		t.Error("Canonical(NoSuchKnob): want error")
	}
}

func TestApplyOverrideErrors(t *testing.T) {
	cfg := cuda.DefaultConfig(true)
	err := ApplyOverride(&cfg, "NoSuchKnob", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown config parameter") {
		t.Fatalf("want unknown-parameter error, got %v", err)
	}
	if !strings.Contains(err.Error(), "PCIeGBps") {
		t.Errorf("unknown-parameter error %q should list aliases", err)
	}

	// String-valued fields are not sweepable by number.
	err = ApplyOverride(&cfg, "TDX.CryptoAlg", 1)
	if err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("want non-numeric error for TDX.CryptoAlg, got %v", err)
	}
}

func TestApplyOverrideKinds(t *testing.T) {
	cfg := cuda.DefaultConfig(true)
	if err := ApplyOverride(&cfg, "PCIeGBps", 12.5); err != nil {
		t.Fatal(err)
	}
	if cfg.PCIe.EffectiveGBps != 12.5 {
		t.Errorf("float override: got %v", cfg.PCIe.EffectiveGBps)
	}
	if err := ApplyOverride(&cfg, "Hypercall", 20000); err != nil {
		t.Fatal(err)
	}
	if cfg.TDX.Hypercall != 20*time.Microsecond {
		t.Errorf("duration override (ns): got %v", cfg.TDX.Hypercall)
	}
	if err := ApplyOverride(&cfg, "CryptoWorkers", 4); err != nil {
		t.Fatal(err)
	}
	if cfg.TDX.CryptoWorkers != 4 {
		t.Errorf("int override: got %v", cfg.TDX.CryptoWorkers)
	}
	if err := ApplyOverride(&cfg, "NVLink.Enabled", 1); err != nil {
		t.Fatal(err)
	}
	if !cfg.NVLink.Enabled {
		t.Error("bool override: NVLink.Enabled not set")
	}
}
