package batch

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"hccsim/internal/cuda"
)

// TestConfigJSONRoundTrip is the runtime complement of the hashcomplete
// static analyzer: Job.Key hashes cuda.Config through json.Marshal, so any
// field the encoder drops (json:"-", unexported, unencodable) silently
// falls out of the cache key and two different configurations collide. The
// test perturbs every field to a distinct nonzero value, round-trips the
// config through JSON, and compares field-for-field; a field that comes
// back zero or changed is exactly a field the cache key would lose.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := cuda.DefaultConfig(true)
	counter := 1
	perturb(t, reflect.ValueOf(&cfg).Elem(), "Config", &counter)
	// Mode and Platform must be resolvable names — Key normalizes the config
	// and validates the pair — so pin them to distinct non-default values
	// instead of the walker's arbitrary strings.
	cfg.Mode = "tee-io-bridge+pipelined"
	cfg.Platform = "b300-bridge"

	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal perturbed config: %v", err)
	}
	var back cuda.Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal config: %v", err)
	}
	compare(t, reflect.ValueOf(cfg), reflect.ValueOf(back), "Config")

	// The perturbed config must also hash differently from the defaults —
	// the whole point of folding it into the key.
	base := WorkloadJob("2mm", false, true)
	perturbed := base
	perturbed.Config = &cfg
	perturbed.Mode = "" // the explicit config's own mode governs
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := perturbed.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("perturbed config produced the same cache key as the defaults")
	}
}

// perturb assigns a distinct nonzero value to every field reachable from v,
// failing on kinds the walker does not know how to make distinct (a new
// field kind should extend the walker, not dodge it).
func perturb(t *testing.T, v reflect.Value, path string, counter *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fpath := path + "." + v.Type().Field(i).Name
			if !f.CanSet() {
				t.Errorf("%s: unexported field cannot round-trip through JSON", fpath)
				continue
			}
			perturb(t, f, fpath, counter)
		}
	case reflect.Bool:
		v.SetBool(true)
		*counter++
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*counter))
		*counter++
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*counter))
		*counter++
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*counter) + 0.5)
		*counter++
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", *counter))
		*counter++
	default:
		t.Errorf("%s: perturb does not handle kind %s", path, v.Kind())
	}
}

// compare walks two values in lockstep and reports every leaf that did not
// survive the round trip, naming its path.
func compare(t *testing.T, a, b reflect.Value, path string) {
	t.Helper()
	if a.Kind() == reflect.Struct {
		for i := 0; i < a.NumField(); i++ {
			compare(t, a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)
		}
		return
	}
	if !a.CanInterface() {
		return // already reported by perturb
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		t.Errorf("%s: %v did not survive the JSON round trip (got %v); "+
			"the cache key drops this field", path, a.Interface(), b.Interface())
	}
}
