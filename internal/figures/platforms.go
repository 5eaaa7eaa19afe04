package figures

import (
	"fmt"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
	"hccsim/internal/workloads"
)

// ExtPlatforms puts every registered hardware platform side by side, each
// compared against itself: the off baseline vs the platform's native
// protection mode, on the platform's own calibration. The cross-platform
// read is where each generation pays its confidential-computing tax:
//
//   - h100-tdx (the paper's Table I testbed) pays on both sides — software
//     crypto on the transfer path and hypercall/MMIO taxes on the kernel
//     side;
//   - h100-snp swaps the CPU TEE for AMD SEV-SNP: cheaper hypercalls,
//     slightly dearer page-state transitions, same GPU-side story;
//   - b300-bridge (Blackwell-class TEE-IO) runs GPU-local work at full
//     rate — launch and kernel terms match off — but serializes every
//     transfer on one encrypted bridge at half the link rate;
//   - gh200-c2c (Grace-Hopper-class coherent C2C) keeps TEE-IO's direct
//     path with a link fast enough that the transfer tax nearly vanishes.
func ExtPlatforms() Table {
	return extPlatforms(platform.Profiles())
}

// ExtPlatformsFor is ExtPlatforms restricted to named platforms — the
// cross-platform appendix of cmd/hccreport. Unknown names are errors.
func ExtPlatformsFor(names []string) (Table, error) {
	profs := make([]platform.Profile, len(names))
	for i, n := range names {
		p, err := platform.ByName(n)
		if err != nil {
			return Table{}, err
		}
		profs[i] = p
	}
	return extPlatforms(profs), nil
}

func extPlatforms(profs []platform.Profile) Table {
	t := Table{
		ID:    "ext-platforms",
		Title: "cross-platform: off vs native protection mode per hardware profile",
	}
	t.Columns = append([]string{"metric"}, make([]string, len(profs))...)
	for i, p := range profs {
		t.Columns[1+i] = p.Name()
	}

	offs := make([]cuda.Config, len(profs))
	ccs := make([]cuda.Config, len(profs))
	rowMode := []interface{}{"native CC mode"}
	for i, p := range profs {
		offs[i] = platformConfig(p.Name(), "off")
		ccs[i] = platformConfig(p.Name(), p.NativeMode())
		rowMode = append(rowMode, p.NativeMode())
	}
	t.AddRow(rowMode...)

	// Transfer path: 1 GiB pinned H2D per platform, off and protected, and
	// the full-duplex test that exposes a serialized bridge.
	rowOff := []interface{}{"pinned H2D 1 GiB off (GB/s)"}
	rowCC := []interface{}{"pinned H2D 1 GiB native CC (GB/s)"}
	rowBidir := []interface{}{"concurrent H2D+D2H CC/off ratio"}
	for i := range profs {
		rowOff = append(rowOff, modeBW(offs[i]))
		rowCC = append(rowCC, modeBW(ccs[i]))
		rowBidir = append(rowBidir, ratio(modeBidir(ccs[i]), modeBidir(offs[i])))
	}
	t.AddRow(rowOff...)
	t.AddRow(rowCC...)
	t.AddRow(rowBidir...)

	// Kernel side: end-to-end and launch-term ratios of a compute-heavy and
	// a transfer-heavy app. A platform whose launch ratio stays at 1.0 runs
	// GPU-local work untaxed.
	for _, name := range []string{"gemm", "2dconv"} {
		spec := mustWorkload(name)
		rowEnd := []interface{}{name + " end-to-end CC/off ratio"}
		rowLaunch := []interface{}{name + " launch term CC/off ratio"}
		for i := range profs {
			base := workloads.Execute(spec, workloads.CopyExecute, offs[i])
			prot := workloads.Execute(spec, workloads.CopyExecute, ccs[i])
			mb := core.Decompose(base.Runtime.Tracer())
			mc := core.Decompose(prot.Runtime.Tracer())
			rowEnd = append(rowEnd, ratio(time.Duration(prot.End), time.Duration(base.End)))
			rowLaunch = append(rowLaunch, ratio(mc.LaunchTerm, mb.LaunchTerm))
		}
		t.AddRow(rowEnd...)
		t.AddRow(rowLaunch...)
	}

	t.Notes = append(t.Notes,
		"each column compares a platform against its own off baseline — the ratios isolate the protection mode, not the hardware generation",
		"a launch-term ratio of ~1.0 with a depressed CC bandwidth is the serialized-bridge signature (GPU-local work free, transfers taxed)",
	)
	return t
}

// platformConfig resolves a (platform, mode) pair, panicking on failure —
// figure generators use static or registry-backed names, so a lookup
// failure is a programming error, not an input error. Mode-only callers
// pass platform.Default.
func platformConfig(platformName, mode string) cuda.Config {
	cfg, err := cuda.PlatformConfig(platformName, mode)
	if err != nil {
		panic(err)
	}
	return cfg
}

// ratio divides two durations, guarding the degenerate zero baseline.
func ratio(num, den time.Duration) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(num)/float64(den))
}
