package tdx

import (
	"time"

	"hccsim/internal/swcrypto"
)

// Test fixture calibration. The production calibration lives in
// internal/platform, which imports this package — so these in-package
// tests carry their own copy of the Table I values. The tests below assert
// relationships between these constants (hypercall vs exit ratios, crypto
// vs staging costs), not the absolute platform numbers; platform's own
// tests pin the shipped profile data.
func defaultParams() Params {
	return Params{
		VMExit:         2400 * time.Nanosecond,
		Hypercall:      13700 * time.Nanosecond,
		MMIODirect:     380 * time.Nanosecond,
		SEPTPerPage:    1900 * time.Nanosecond,
		ConvertPerPage: 2600 * time.Nanosecond,
		ScrubPerPage:   950 * time.Nanosecond,
		DMAMapBase:     1200 * time.Nanosecond,
		HostMemcpyGBps: 11.5,
		BounceBufBytes: 256 << 20,
		CryptoCPU:      swcrypto.IntelEMR,
		CryptoAlg:      swcrypto.AES128GCM,
		CryptoWorkers:  1,
		IDEPerTLP:      250 * time.Nanosecond,
		BridgeGBps:     26.0,
	}
}

// snpParams is the SEV-SNP variant: cheaper GHCB exits, dearer RMP
// page-state changes.
func snpParams() Params {
	p := defaultParams()
	p.Hypercall = 9200 * time.Nanosecond
	p.SEPTPerPage = 2300 * time.Nanosecond
	p.ConvertPerPage = 2900 * time.Nanosecond
	p.ScrubPerPage = 1100 * time.Nanosecond
	return p
}
