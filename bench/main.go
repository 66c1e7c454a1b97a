// Command bench is the repository's benchmark: one process that drives the
// whole frame path — library, render service, gateway — on four seeded
// workloads, verifies every frame it times against a serial-render
// oracle, prints every end-to-end metric by name with its unit, and, in a
// separate traced run, every per-layer metric plus a Chrome trace of its
// own spans. See README.md in this directory.
//
//	go run ./bench                                  all workloads, untraced then traced
//	go run ./bench -workload rotate-256 -trace 0    one run; the last line is its JSON result
//	go run ./bench -selfcheck                       the untraced set twice, medians compared with the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int // 0 untraced, 1 traced, -1 both
	selfcheck bool
	outDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for viewpoint order and tenant draws")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare the medians with the bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (see -help)")
	}
	e, err := newEnv(o.seed, o.seconds)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "bench:", e)
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	}
	if o.selfcheck {
		return selfcheck(names, e, out)
	}
	incorrect := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if o.trace >= 0 && traced != (o.trace == 1) {
				continue
			}
			res, err := runOne(name, e, traced, o.outDir, nil)
			if err != nil {
				return err
			}
			if res.Invalid != "" {
				return fmt.Errorf("%s: invalid run: %s", name, res.Invalid)
			}
			printResult(out, res)
			if res.Failed > 0 {
				incorrect++
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs produced frames that differ from the oracle or failed", incorrect)
	}
	return nil
}

// runOne makes the workload's inputs from the seed and runs it once.
func runOne(name string, e env, traced bool, outDir string, corrupt func(int, []byte)) (*result, error) {
	w, err := newWorkload(name, e.Seed)
	if err != nil {
		return nil, err
	}
	switch {
	case traced:
		return runTraced(w, e, outDir)
	case w.service:
		return runService(w, e, corrupt)
	}
	return runLibrary(w, e)
}

// printResult prints every metric of the run by name with its unit, and
// last the one-line JSON result.
func printResult(out io.Writer, r *result) {
	kind := "untraced: end-to-end metrics, median of 5 slices [min .. max]"
	if r.Traced {
		kind = "traced: per-layer metrics (0: the layer is not on this workload's path)"
	}
	fmt.Fprintf(out, "\n== %s (%s)\n", r.Workload, kind)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	for _, d := range r.defs() {
		v := r.Metrics[d.Name]
		metrics[d.Name] = jsonMetric{v.V, d.Unit}
		if r.Traced {
			fmt.Fprintf(out, "%-34s %14.6g %-8s\n", d.Name, v.V, d.Unit)
		} else {
			fmt.Fprintf(out, "%-20s %14.6g %-8s [%.6g .. %.6g]\n", d.Name, v.V, d.Unit, v.Min, v.Max)
		}
	}
	fmt.Fprintf(out, "%-20s %14.6g %-8s (%d failed of %d attempted)\n", "error_frac", r.errorFrac(), "fraction", r.Failed, r.Attempted)
	for _, line := range r.Extra {
		fmt.Fprintln(out, "  "+line)
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // the value is plain data
	}
	fmt.Fprintf(out, "%s\n", b)
}

// selfcheck runs the untraced set twice back to back and prints, per
// metric and workload, the relative difference of the two medians beside
// the bound. Any gated metric that differs by more than its bound fails it.
func selfcheck(names []string, e env, out io.Writer) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, name := range names {
			res, err := runOne(name, e, false, "", nil)
			if err != nil {
				return err
			}
			if res.Failed > 0 || res.Invalid != "" {
				return fmt.Errorf("%s: %d of %d frames failed %s", name, res.Failed, res.Attempted, res.Invalid)
			}
			sets[i][name] = res
		}
	}
	fmt.Fprintf(out, "\n%-14s %-20s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := sets[0][name].Metrics[d.Name].V, sets[1][name].Metrics[d.Name].V
			diff := (b - a) / a // worse is positive
			if d.Better == "higher" {
				diff = (a - b) / a
			}
			mark := ""
			if diff > d.Bound {
				mark, over = "  OVER", over+1
			}
			fmt.Fprintf(out, "%-14s %-20s %12.6g %12.6g %8.2f%% %6.0f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
