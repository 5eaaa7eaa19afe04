package batch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// cacheVersion is folded into every job key; bump it when the payload
// encoding or the meaning of a job changes so stale on-disk entries miss.
const cacheVersion = "hccsweep-v5"

// Key returns the content address of the job: a SHA-256 over the cache
// format version, the job spec, and the fully resolved configuration it
// runs under. Two jobs share a key exactly when they simulate the same
// thing — a default-config job and an override job that reproduces the
// defaults hash identically, and any calibration change to the defaults
// invalidates every cached result built on them.
//
// Key builds the configuration but looks up no names; Validate checks those.
func (j Job) Key() (string, error) {
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return "", err
	}
	r := resolved{job: j, cfg: cfg}
	return r.Key()
}

// Key hashes the resolved job: the spec fields of the job and the
// configuration it runs under.
func (r *resolved) Key() (string, error) {
	j := r.job
	// Hash the spec fields only (not Overrides/Config — those are already
	// folded into the resolved config).
	spec := struct {
		Version   string
		Kind      Kind
		Workload  string  `json:",omitempty"`
		UVM       bool    `json:",omitempty"`
		Model     string  `json:",omitempty"`
		Precision string  `json:",omitempty"`
		Backend   string  `json:",omitempty"`
		Quant     string  `json:",omitempty"`
		Batch     int     `json:",omitempty"`
		RateQPS   float64 `json:",omitempty"`
		Requests  int     `json:",omitempty"`
		Seed      uint64  `json:",omitempty"`
	}{cacheVersion, j.Kind, j.Workload, j.UVM, j.Model, j.Precision,
		j.Backend, j.Quant, j.Batch, j.RateQPS, j.Requests, j.Seed}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("batch: hashing job spec: %w", err)
	}
	cfgJSON, err := json.Marshal(r.cfg)
	if err != nil {
		return "", fmt.Errorf("batch: hashing job config: %w", err)
	}
	h := sha256.New()
	h.Write(specJSON)
	h.Write([]byte{0})
	h.Write(cfgJSON)
	return hex.EncodeToString(h.Sum(nil)), nil
}
