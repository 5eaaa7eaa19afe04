package nn

import "hccsim/internal/cuda"

// sysConfig builds the default system for a workload-level protection-mode
// request ("" meaning off). It panics on an unknown mode name, mirroring
// cuda.New's fatal-config contract.
func sysConfig(mode string) cuda.Config {
	cfg, err := cuda.NewConfig(mode)
	if err != nil {
		panic("nn: " + err.Error())
	}
	return cfg
}
