package batch

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
)

// FuzzParseAxis: ParseAxis, ParseAxes and the overrides behind them return
// errors, never panic, on any spec. An accepted axis round-trips: written
// back from its canonical parameter (or mode and platform names) and its
// values, it parses to itself; a parameter axis names a path Canonical maps
// to itself, and applying its values never panics. ParseAxes agrees with
// ParseAxis on one spec and rejects the same spec given twice.
func FuzzParseAxis(f *testing.F) {
	for _, s := range []string{
		"PCIeGBps=8,16, 32", "PCIe.EffectiveGBps=8", "PCIeEffectiveGBps=8",
		"Hypercall=1500", "Host.FenceInterval=0,4", "TDX.CryptoAlg=1",
		"cc.mode=off,tdx,TEE-IO+pipelined", "hw.platform=h100-tdx,b300",
		"serve.rate=0.5,2", "serve.rate=0", "PCIeGBps=NaN,-Inf,1e400",
		"PCIeGBps", "=8", "PCIeGBps=8,,16", "PCIe.=1", ".EffectiveGBps=1",
		"PCIe.params=1", "Mode=1", "TDX.Hypercall=9e18",
	} {
		f.Add(s)
	}
	for _, n := range OverrideNames() {
		f.Add(strings.TrimSuffix(n, " (ns)") + "=1")
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := ParseAxis(spec)
		axes, errs := ParseAxes([]string{spec})
		if (err == nil) != (errs == nil) {
			t.Fatalf("ParseAxis(%q) err %v, but ParseAxes err %v", spec, err, errs)
		}
		if err != nil {
			return
		}
		if fmt.Sprint(axes[0]) != fmt.Sprint(ax) {
			t.Fatalf("ParseAxes(%q) = %v, ParseAxis = %v", spec, axes[0], ax)
		}
		if _, err := ParseAxes([]string{spec, spec}); err == nil {
			t.Fatalf("ParseAxes accepted %q twice", spec)
		}
		var list []string
		switch ax.Param {
		case ModeAxis:
			for _, m := range ax.Modes {
				if _, err := ccmode.ByName(m); err != nil {
					t.Fatalf("ParseAxis(%q) kept mode %q: %v", spec, m, err)
				}
			}
			list = ax.Modes
		case PlatformAxis:
			for _, p := range ax.Platforms {
				if _, err := platform.ByName(p); err != nil {
					t.Fatalf("ParseAxis(%q) kept platform %q: %v", spec, p, err)
				}
			}
			list = ax.Platforms
		default:
			if ax.Param != ServeRateAxis {
				if canon, err := Canonical(ax.Param); err != nil || canon != ax.Param {
					t.Fatalf("ParseAxis(%q).Param = %q, which canonicalizes to %q, %v", spec, ax.Param, canon, err)
				}
				cfg := cuda.DefaultConfig(false)
				for _, v := range ax.Values {
					_ = ApplyOverride(&cfg, ax.Param, v) // a non-numeric parameter errors here
				}
			}
			for _, v := range ax.Values {
				list = append(list, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		again, err := ParseAxis(ax.Param + "=" + strings.Join(list, ","))
		if err != nil || fmt.Sprint(again) != fmt.Sprint(ax) {
			t.Fatalf("ParseAxis(%q) = %v, which round-trips to %v, %v", spec, ax, again, err)
		}
	})
}
