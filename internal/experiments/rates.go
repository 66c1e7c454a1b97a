package experiments

import (
	"fmt"

	"shearwarp/internal/machines"
	"shearwarp/internal/stats"
)

// Rates reproduces the paper's framing claim ("real time volume rendering
// is promising on general purpose multiprocessors"): steady-state frame
// times converted to frames per second at each platform's nominal clock,
// old vs new algorithm.
//
// Clock rates follow the paper: DASH 33MHz R3000s, Challenge 150MHz,
// the Simulator's modern processor modeled at 200MHz, Origin2000 195MHz,
// SVM nodes 200MHz.
func Rates(l *Lab) []stats.Table {
	n := l.largestMRI()
	clocks := map[string]float64{
		"DASH":       33e6,
		"Challenge":  150e6,
		"Simulator":  200e6,
		"Origin2000": 195e6,
		"SVM":        200e6,
	}
	t := stats.Table{
		ID:      "rates",
		Title:   fmt.Sprintf("Frames per second at nominal clock rates, MRI %d phantom", n),
		Columns: []string{"platform", "procs", "old fps", "new fps", "new/old"},
	}
	addRow := func(name string, procs int, old, nw int64) {
		hz := clocks[name]
		oldFPS := hz / float64(old)
		newFPS := hz / float64(nw)
		t.AddRow(name, stats.I(int64(procs)),
			stats.F(oldFPS, 1), stats.F(newFPS, 1), stats.F(newFPS/oldFPS, 2))
	}
	for _, m := range machines.All() {
		p := l.maxProcs(m)
		old := l.RunOld("mri", n, m, p).SteadyCycles()
		nw := l.RunNew("mri", n, m, p).SteadyCycles()
		addRow(m.Name, p, old, nw)
	}
	pSVM := 16
	oldSVM := l.RunOldSVM("mri", n, pSVM).SteadyCycles()
	newSVM := l.RunNewSVM("mri", n, pSVM).SteadyCycles()
	addRow("SVM", pSVM, oldSVM, newSVM)

	t.AddNote("interactive = 10-15 fps, real time = 30 fps (section 1); scaled volumes render")
	t.AddNote("proportionally faster than the paper's 256^3-512^3 sets — compare the new/old ratio")
	t.AddNote("per frame simulated at each platform's nominal processor clock")
	return []stats.Table{t}
}

// Inventory summarizes what this reproduction built and how the pieces
// map to the paper — a machine-readable version of DESIGN.md's table,
// handy as the first table of a full run.
func Inventory(l *Lab) []stats.Table {
	t := stats.Table{
		ID:      "inventory",
		Title:   "System inventory: paper component -> implementation",
		Columns: []string{"paper component", "implementation"},
	}
	rows := [][2]string{
		{"serial shear-warp renderer (Lacroute)", "internal/render + composite + warp + rle + xform"},
		{"run-length encoded classified volume", "internal/rle (per principal axis)"},
		{"early ray termination", "internal/img opaque-pixel skip links"},
		{"old parallel algorithm (Lacroute/Singh)", "internal/oldalg + simrun.RunOld"},
		{"new parallel algorithm (this paper)", "internal/newalg + simrun.RunNew"},
		{"scanline cost profiling (section 4.2)", "composite.Ctx.Scanline cycle returns"},
		{"cumulative-profile partitioning (4.3)", "newalg.Planner: par.Scan + equal-area split"},
		{"chunked task stealing (4.4)", "par.Bands, chunk from newalg.Planner"},
		{"barrier-free warp (4.5, 5.5.2)", "newalg.Planner warp.Tasks + per-band conds"},
		{"ray-casting baseline (Nieh & Levoy)", "internal/raycast + internal/octree"},
		{"parallel ray caster on the simulator", "simrun.RunRayCast (tile queue + stealing)"},
		{"parallel classification/encoding", "classify.ClassifyParallel + rle.EncodeParallel"},
		{"Tango-Lite reference generation", "internal/trace + kernel tracers"},
		{"memory-system simulator (3.2)", "internal/memsim (directory, miss classes)"},
		{"SVM platform / HLRC (5.5.2)", "internal/svmsim"},
		{"DASH/Challenge/Simulator/Origin2000", "internal/machines presets"},
		{"MRI/CT scan inputs", "internal/vol phantoms + Resample"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return []stats.Table{t}
}
