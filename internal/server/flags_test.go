package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"shearwarp/internal/slo"
)

// flagConfig resolves the Config shearwarpd runs with for args; with
// printed, every flag -h prints a default for is first set to it.
func flagConfig(t *testing.T, printed bool, args ...string) Config {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("shearwarpd", flag.ContinueOnError)
	c.RegisterFlags(fs)
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
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShippedDefaults pins shearwarpd's flag defaults, as parsed and as
// -h prints them, to Config{}'s: the service an embedding caller (a
// test, the benchmark) builds from the zero Config is the one the daemon
// ships.
func TestShippedDefaults(t *testing.T) {
	var zero Config
	zero.normalize()
	flagged := flagConfig(t, false)
	flagged.normalize()
	if !reflect.DeepEqual(flagged, zero) {
		t.Errorf("shearwarpd flag defaults resolve to\n%+v\nConfig{} resolves to\n%+v", flagged, zero)
	}
	// Spelled out, the defaults differ only where nil stands for
	// DefaultSpec and a nil Logger for logging off.
	printed := flagConfig(t, true)
	printed.normalize()
	printed.Logger = nil
	zero.SLO, _ = slo.Parse(slo.DefaultSpec)
	if !reflect.DeepEqual(printed, zero) {
		t.Errorf("shearwarpd -h defaults resolve to\n%+v\nConfig{} resolves to\n%+v", printed, zero)
	}
}

// TestFlagsKeepDerivedDefaults checks flags that set one field leave the
// fields derived from it following it.
func TestFlagsKeepDerivedDefaults(t *testing.T) {
	c := flagConfig(t, false, "-max-concurrent", "16")
	c.normalize()
	if c.MaxQueue != 64 || c.PoolSize != 16 {
		t.Errorf("-max-concurrent 16: MaxQueue %d PoolSize %d, want 64 and 16", c.MaxQueue, c.PoolSize)
	}
	c = flagConfig(t, false, "-cache-mb", "-1")
	c.normalize()
	if c.CacheBytes >= 0 {
		t.Errorf("-cache-mb -1: CacheBytes %d, want negative (unbounded)", c.CacheBytes)
	}
}

// TestSLOFlagEmptyDisables checks -slo "" turns the SLO engine off.
func TestSLOFlagEmptyDisables(t *testing.T) {
	s := New(flagConfig(t, false, "-slo", ""))
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/slo with -slo \"\": status %d, want 404", rec.Code)
	}
}
