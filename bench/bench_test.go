package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONInSync keeps BENCHMARK.json and the tables in
// metrics.go from drifting, and inside the limits the contract sets.
func TestBenchmarkJSONInSync(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if got := strings.Join(doc.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", doc.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in metrics.go", i, w, d)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit or bound", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("per-layer %s predicts no end-to-end metric", d.Name)
		}
	}
}

// printedNames runs printResult and returns the metric names of the JSON
// result on its last line.
func printedNames(t *testing.T, r *result) []string {
	t.Helper()
	var out bytes.Buffer
	printResult(&out, r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var doc struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil || *doc.Attempted < 1 {
		t.Fatalf("JSON result lacks correct/attempted/failed: %s", lines[len(lines)-1])
	}
	var names []string
	for n, m := range doc.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks value or unit", n)
		}
		if !strings.Contains(out.String(), "\n"+n+" ") {
			t.Errorf("metric %s is not printed by name", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload with 0.2 s slices, untraced and (unless
// -short) traced, and asserts that no frame failed and that the metric and
// workload names printed are exactly those of BENCHMARK.json — so the
// benchmark keeps compiling and stays in sync as layers change.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	var wantE2E, wantLayer []string
	for _, m := range doc.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range doc.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	e, err := newEnv(1, 1)
	if err != nil {
		t.Skip(err)
	}
	for _, w := range doc.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && w.Name == "rotate-256" {
				t.Skip("256^3 set-up takes several seconds")
			}
			res, err := runOne(w.Name, e, false, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Invalid != "" {
				t.Logf("run marked invalid (a loaded test machine): %s", res.Invalid)
			}
			if res.Failed != 0 || res.errorFrac() != 0 {
				t.Errorf("error_frac = %g (%d of %d)", res.errorFrac(), res.Failed, res.Attempted)
			}
			if got := printedNames(t, res); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
				t.Errorf("untraced run printed %v, BENCHMARK.json lists %v", got, wantE2E)
			}
			for n, v := range res.Metrics {
				if v.V <= 0 {
					t.Errorf("end-to-end metric %s = %g, must never be 0", n, v.V)
				}
			}
			if testing.Short() {
				return
			}
			dir := t.TempDir()
			res, err = runOne(w.Name, e, true, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("traced run: %d of %d frames failed (stitched image, oracle or service body)", res.Failed, res.Attempted)
			}
			if got := printedNames(t, res); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
				t.Errorf("traced run printed %v, BENCHMARK.json lists %v", got, wantLayer)
			}
			// Behind the gateway a hedge or a bounded-load spill legitimately
			// builds a tenant on the second backend in mid-run.
			if n := res.Metrics["volcache.steady_builds"].V; n != 0 && w.Name != "gateway-small" {
				t.Errorf("volcache.steady_builds = %g, want 0", n)
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct{ Args span }
			}
			if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("trace file: %d events, %v", len(trace.TraceEvents), err)
			}
			for _, ev := range trace.TraceEvents {
				if s := ev.Args; s.Trace == 0 || s.Layer == "" || s.EndNS < s.StartNS {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestCorruptedFrameIsCounted is the negative self-test: one flipped pixel
// in one response must show up in error_frac.
func TestCorruptedFrameIsCounted(t *testing.T) {
	e, err := newEnv(1, 0.5)
	if err != nil {
		t.Skip(err)
	}
	flipped := 0
	res, err := runOne("gateway-small", e, false, "", func(i int, body []byte) {
		if i == 1 && flipped == 0 { // the clients claim indices one at a time, so i == 1 runs on one goroutine per drive
			body[len(body)-1] ^= 1
			flipped++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped != 1 || res.Failed != 1 || res.errorFrac() <= 0 {
		t.Errorf("flipped %d pixels; failed = %d of %d, error_frac = %g: a corrupted frame must be counted", flipped, res.Failed, res.Attempted, res.errorFrac())
	}
	var out bytes.Buffer
	printResult(&out, res)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Error("a run with a corrupted frame must report correct: false")
	}
}
