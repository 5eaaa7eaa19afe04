// Package fixture exercises the hashcomplete analyzer: fields the cache
// key would silently drop (json:"-", unexported, unencodable types) are
// flagged when a Key function marshals the type; clean structs, custom
// marshalers, and marshal calls outside Key functions pass.
package fixture

import "encoding/json"

// Inner is reached through Spec.Inner, so its fields join the walk.
type Inner struct {
	Rate   float64
	weight int // want `unexported`
}

// Spec is hashed by Holder.Key below.
type Spec struct {
	Name    string
	Comment string `json:"-"`              // want `json:"-"`
	Hook    func() `json:"hook,omitempty"` // want `func`
	Inner   Inner
	Nested  []Inner
}

// Holder hashes its spec into a cache key.
type Holder struct{ S Spec }

// Key is the cache-key boundary the analyzer looks for.
func (h Holder) Key() (string, error) {
	b, err := json.Marshal(h.S)
	return string(b), err
}

// Clean marshals completely: every field participates in the key.
type Clean struct {
	A     int
	B     string `json:"b,omitempty"`
	C     []float64
	D     map[string]int
	Inner struct{ X, Y int }
}

// Key hashes a fully encodable struct — no findings.
func (c Clean) Key() string {
	b, _ := json.Marshal(c)
	return string(b)
}

// Sealed has a custom MarshalJSON, so static field walking stops: the
// runtime round-trip guard owns its completeness.
type Sealed struct{ secret int }

// MarshalJSON encodes the secret explicitly.
func (s Sealed) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.secret)
}

// WithSealed embeds the custom-marshaled type — no findings.
type WithSealed struct{ S Sealed }

// Key hashes through the custom marshaler — no findings.
func (w WithSealed) Key() string {
	b, _ := json.Marshal(w)
	return string(b)
}

// ModedConfig mirrors the real system config: the protection mode is a plain
// string next to the platform name. Dropping it from the encoding — as the
// json:"-" tag and the unexported shadow do here — is exactly the omission that
// would make an "off" and a "tee-io-bridge" sweep share cached results.
type ModedConfig struct {
	Platform string
	Mode     string `json:"-"` // want `json:"-"`
	modeImpl string // want `unexported`
}

// Key hashes the mode-bearing config — both dropped fields are flagged.
func (m ModedConfig) Key() (string, error) {
	b, err := json.Marshal(m)
	return string(b), err
}

// ServeSpec mirrors the serving-job cells in the batch job schema: offered
// rate, request count and workload seed all shape the simulated output, so
// each must reach the cache key even when tagged omitempty. The shadow
// rate dropped here is exactly the omission that would make a 1.2 and a
// 1.6 qps sweep share cached results.
type ServeSpec struct {
	RateQPS  float64 `json:"rateQPS,omitempty"`
	Requests int     `json:"requests,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	rate     float64 // want `unexported`
}

// Key hashes the serving cell — the shadow rate is flagged.
func (s ServeSpec) Key() (string, error) {
	b, err := json.Marshal(s)
	return string(b), err
}

// Logged is only marshaled outside a Key function; its dropped field is
// not a cache hazard and is not flagged.
type Logged struct {
	Visible string
	hidden  string
}

// Dump is not a Key function.
func Dump(l Logged) []byte {
	b, _ := json.Marshal(l)
	return b
}
