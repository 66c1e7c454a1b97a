package loadgen

import (
	"flag"
	"reflect"
	"testing"
)

// TestShippedDefaults pins loadgen's flag defaults, as parsed and as -h
// prints them, to Config{}'s (with the same target and rate, which a
// Config must state): the run an embedding caller configures from the
// zero Config is the one the command ships.
func TestShippedDefaults(t *testing.T) {
	for _, printed := range []bool{false, true} {
		var flagged Config
		fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
		flagged.RegisterFlags(fs)
		if printed {
			fs.VisitAll(func(f *flag.Flag) {
				if f.DefValue == "" {
					return // -h prints no default
				}
				if err := fs.Set(f.Name, f.DefValue); err != nil {
					t.Errorf("-%s %q: %v", f.Name, f.DefValue, err)
				}
			})
		}
		if err := fs.Parse([]string{"-url", "http://x"}); err != nil {
			t.Fatal(err)
		}
		zero := Config{BaseURL: "http://x", RPS: flagged.RPS}
		for _, c := range []*Config{&flagged, &zero} {
			if err := c.normalize(); err != nil {
				t.Fatal(err)
			}
			c.Client = nil
		}
		if !reflect.DeepEqual(flagged, zero) {
			t.Errorf("printed %v: loadgen flag defaults resolve to\n%+v\nConfig{} resolves to\n%+v", printed, flagged, zero)
		}
	}
}
