package serve

import (
	"fmt"
	"reflect"
	"testing"

	"hccsim/internal/obs"
)

// TestObserverDifferential is the serving oracle for copy replay: an
// attached observer makes every token-id and swap copy run its step chain,
// while an unobserved run replays the copies nothing else can see. Both
// must report exactly the same run, in every protection mode, below and
// above the capacity knee, with and without a KV pool small enough to
// force preemption and swap traffic.
func TestObserverDifferential(t *testing.T) {
	modes := []string{"off", "tdx-h100", "tdx-h100+pipelined",
		"tee-io-direct", "tee-io-bridge", "tee-io-bridge+pipelined"}
	preempted := false
	for _, mode := range modes {
		for _, rate := range []float64{0.8, 2.0} {
			for _, kvCap := range []int64{0, 4 << 30} {
				t.Run(fmt.Sprintf("%s@%g/kv=%d", mode, rate, kvCap), func(t *testing.T) {
					cfg := Config{Mode: mode, RateQPS: rate, Requests: 40, Seed: 3, KVCapBytes: kvCap}
					plain, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Observer = obs.New()
					observed, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, observed) {
						t.Errorf("unobserved run differs from observed\n--- unobserved\n%s--- observed\n%s", plain, observed)
					}
					preempted = preempted || plain.Preemptions > 0
				})
			}
		}
	}
	if !preempted {
		t.Error("no cell preempted: the 4 GiB KV pool no longer forces swap traffic")
	}
}
