package main

import (
	"reflect"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
)

func TestParseModes(t *testing.T) {
	cases := []struct {
		in   string
		want []string // nil: rejected
	}{
		{"off,tdx-h100", []string{"off", "tdx-h100"}},
		{"tdx", []string{"tdx-h100"}},
		{" tee-io-bridge+pipelined , off", []string{"tee-io-bridge+pipelined", "off"}},
		{"cc", nil},
		{"base", nil},
		{"off,cc", nil},
		{"", nil},
	}
	for _, c := range cases {
		got, err := parseModes(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseModes(%q) = %v, want an error", c.in, got)
				continue
			}
			_, list, _ := strings.Cut(err.Error(), "want one of ")
			if want := strings.Join(ccmode.Names(), ", ") + ", optionally"; !strings.HasPrefix(list, want) {
				t.Errorf("parseModes(%q) error %q should list exactly the canonical mode names", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseModes(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseModes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
