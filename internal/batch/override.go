package batch

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
)

// Named configuration parameters. A parameter path is "Section.Field" over
// the cuda.Config struct ("PCIe.EffectiveGBps", "TDX.Hypercall",
// "Host.FenceInterval", ...); the section prefix may be concatenated
// ("PCIeEffectiveGBps") and a few common knobs have short aliases. Numeric
// kinds supported: float64, int, int64, bool (nonzero = true) and
// time.Duration (value in nanoseconds). String-valued fields (crypto
// algorithm/CPU selection) are not sweepable by number and are rejected.

// aliases maps ergonomic sweep names to canonical parameter paths.
var aliases = map[string]string{
	"PCIeGBps":      "PCIe.EffectiveGBps",
	"HBMGBps":       "HBM.BandwidthGBps",
	"HostMemGBps":   "TDX.HostMemcpyGBps",
	"CryptoWorkers": "TDX.CryptoWorkers",
	"Hypercall":     "TDX.Hypercall",
	"BatchPagesCC":  "UVM.BatchPagesCC",
	"FenceInterval": "Host.FenceInterval",
}

var durationType = reflect.TypeOf(time.Duration(0))

// resolve finds the field for a parameter name and its canonical
// "Section.Field" path, trying the alias table, an explicit "Section.Field"
// path, and a concatenated section prefix, in that order.
func resolve(cfg *cuda.Config, name string) (reflect.Value, string, error) {
	if full, ok := aliases[name]; ok {
		name = full
	}
	v := reflect.ValueOf(cfg).Elem()
	t := v.Type()
	section, field := "", name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		section, field = name[:i], name[i+1:]
	}
	for i := 0; i < t.NumField(); i++ {
		sec := v.Field(i)
		if sec.Kind() != reflect.Struct {
			continue
		}
		secName := t.Field(i).Name
		switch {
		case section != "":
			if secName != section {
				continue
			}
			if f := sec.FieldByName(field); f.IsValid() {
				return f, secName + "." + field, nil
			}
		case strings.HasPrefix(name, secName):
			rest := strings.TrimPrefix(name, secName)
			if f := sec.FieldByName(rest); f.IsValid() {
				return f, secName + "." + rest, nil
			}
		}
	}
	return reflect.Value{}, "", fmt.Errorf("batch: unknown config parameter %q (see OverrideNames; aliases: %v)",
		name, aliasList())
}

// Canonical resolves a parameter name — short alias, "Section.Field" path,
// or concatenated "SectionField" form — to its canonical "Section.Field"
// path over cuda.Config. Unknown names error with the alias list attached.
func Canonical(name string) (string, error) {
	cfg := cuda.DefaultConfig(false)
	_, path, err := resolve(&cfg, name)
	return path, err
}

// ApplyOverride sets the named parameter on cfg. Duration-valued parameters
// interpret value as nanoseconds; bool parameters treat nonzero as true.
func ApplyOverride(cfg *cuda.Config, name string, value float64) error {
	f, _, err := resolve(cfg, name)
	if err != nil {
		return err
	}
	switch {
	case f.Type() == durationType:
		f.SetInt(int64(value))
	case f.Kind() == reflect.Float64:
		f.SetFloat(value)
	case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
		f.SetInt(int64(value))
	case f.Kind() == reflect.Bool:
		f.SetBool(value != 0)
	default:
		return fmt.Errorf("batch: parameter %q has non-numeric type %s and cannot be swept", name, f.Type())
	}
	return nil
}

// OverrideNames lists every sweepable "Section.Field" parameter path, with a
// unit suffix for durations, sorted.
func OverrideNames() []string {
	cfg := cuda.DefaultConfig(false)
	v := reflect.ValueOf(cfg)
	t := v.Type()
	var out []string
	for i := 0; i < t.NumField(); i++ {
		sec := v.Field(i)
		if sec.Kind() != reflect.Struct {
			continue
		}
		st := sec.Type()
		for j := 0; j < st.NumField(); j++ {
			f := sec.Field(j)
			path := t.Field(i).Name + "." + st.Field(j).Name
			switch {
			case f.Type() == durationType:
				out = append(out, path+" (ns)")
			case f.Kind() == reflect.Float64, f.Kind() == reflect.Int,
				f.Kind() == reflect.Int64, f.Kind() == reflect.Bool:
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ModeAxis is the reserved axis name sweeping the protection mode itself.
const ModeAxis = "cc.mode"

// ServeRateAxis is the reserved axis name sweeping the offered request rate
// of serving-traffic jobs (expand with GridServeRates).
const ServeRateAxis = "serve.rate"

// PlatformAxis is the reserved axis name sweeping the hardware platform
// itself (expand with GridPlatforms).
const PlatformAxis = "hw.platform"

// Axis is one sweep dimension: a canonical "Section.Field" parameter path
// and the grid values it takes (expand with Grid), or — when Param is
// ModeAxis or PlatformAxis — a list of protection-mode or platform names
// (expand with GridModes / GridPlatforms).
type Axis struct {
	Param     string
	Values    []float64
	Modes     []string
	Platforms []string
}

// ParseAxis parses one "Name=v1,v2,..." grid-axis spec. The name may be a
// short alias, a "Section.Field" path, or the concatenated form; it is
// resolved eagerly, so a typo fails here rather than mid-sweep, and the
// returned Axis carries the canonical path.
func ParseAxis(s string) (Axis, error) {
	name, list, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || strings.TrimSpace(list) == "" {
		return Axis{}, fmt.Errorf("batch: malformed axis %q: want Name=v1,v2,...", s)
	}
	if name == ModeAxis {
		var modes []string
		for _, f := range strings.Split(list, ",") {
			m, err := ccmode.ByName(strings.TrimSpace(f))
			if err != nil {
				return Axis{}, fmt.Errorf("batch: axis %s: %v", ModeAxis, err)
			}
			modes = append(modes, m.Name())
		}
		return Axis{Param: ModeAxis, Modes: modes}, nil
	}
	if name == PlatformAxis {
		var platforms []string
		for _, f := range strings.Split(list, ",") {
			p, err := platform.ByName(strings.TrimSpace(f))
			if err != nil {
				return Axis{}, fmt.Errorf("batch: axis %s: %v", PlatformAxis, err)
			}
			platforms = append(platforms, p.Name())
		}
		return Axis{Param: PlatformAxis, Platforms: platforms}, nil
	}
	if name == ServeRateAxis {
		vals, err := parseAxisValues(name, list)
		if err != nil {
			return Axis{}, err
		}
		for _, v := range vals {
			if v <= 0 {
				return Axis{}, fmt.Errorf("batch: axis %s: rate %g is not positive", ServeRateAxis, v)
			}
		}
		return Axis{Param: ServeRateAxis, Values: vals}, nil
	}
	param, err := Canonical(name)
	if err != nil {
		return Axis{}, err
	}
	vals, err := parseAxisValues(name, list)
	if err != nil {
		return Axis{}, err
	}
	return Axis{Param: param, Values: vals}, nil
}

func parseAxisValues(name, list string) ([]float64, error) {
	var vals []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("batch: axis %s: bad value %q", name, strings.TrimSpace(f))
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// ParseAxes parses a list of axis specs and rejects duplicate axes — two
// specs naming the same parameter, even through different spellings
// ("PCIeGBps" and "PCIe.EffectiveGBps" collide after canonicalization). A
// duplicated axis would silently multiply the grid and let the later value
// win on every cell.
func ParseAxes(specs []string) ([]Axis, error) {
	axes := make([]Axis, 0, len(specs))
	firstSpelling := make(map[string]string)
	for _, s := range specs {
		ax, err := ParseAxis(s)
		if err != nil {
			return nil, err
		}
		name, _, _ := strings.Cut(s, "=")
		name = strings.TrimSpace(name)
		if prev, dup := firstSpelling[ax.Param]; dup {
			if prev == name {
				return nil, fmt.Errorf("batch: duplicate sweep axis %q", name)
			}
			return nil, fmt.Errorf("batch: duplicate sweep axis %q (%q already names parameter %s)",
				name, prev, ax.Param)
		}
		firstSpelling[ax.Param] = name
		axes = append(axes, ax)
	}
	return axes, nil
}

func aliasList() []string {
	var out []string
	for a := range aliases {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
