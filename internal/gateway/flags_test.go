package gateway

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"shearwarp/internal/slo"
)

// flagConfig resolves the Config shearwarpgw runs with for args, over
// one backend; with printed, every flag -h prints a default for
// is first set to it.
func flagConfig(t *testing.T, printed bool, args ...string) Config {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("shearwarpgw", flag.ContinueOnError)
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
	if err := fs.Parse(append([]string{"-backends", "http://127.0.0.1:1"}, args...)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShippedDefaults pins shearwarpgw's flag defaults, as parsed and as
// -h prints them, to Config{}'s (with the same backends): the gateway an
// embedding caller builds from the zero Config is the one the daemon
// ships.
func TestShippedDefaults(t *testing.T) {
	zero := Config{Backends: []string{"http://127.0.0.1:1"}}
	if err := zero.normalize(); err != nil {
		t.Fatal(err)
	}
	flagged := flagConfig(t, false)
	if err := flagged.normalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flagged, zero) {
		t.Errorf("shearwarpgw flag defaults resolve to\n%+v\nConfig{} resolves to\n%+v", flagged, zero)
	}
	// Spelled out, the defaults differ only where nil stands for
	// DefaultSpec and a nil Logger for logging off.
	printed := flagConfig(t, true)
	if err := printed.normalize(); err != nil {
		t.Fatal(err)
	}
	printed.Logger = nil
	zero.SLO, _ = slo.Parse(slo.DefaultSpec)
	if !reflect.DeepEqual(printed, zero) {
		t.Errorf("shearwarpgw -h defaults resolve to\n%+v\nConfig{} resolves to\n%+v", printed, zero)
	}
}

// TestSLOFlagEmptyDisables checks -slo "" turns the fleet SLO engine
// off, as it does on shearwarpd.
func TestSLOFlagEmptyDisables(t *testing.T) {
	g, err := New(flagConfig(t, false, "-slo", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/slo with -slo \"\": status %d, want 404", rec.Code)
	}
}
