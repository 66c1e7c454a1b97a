package simrun

import (
	"shearwarp/internal/composite"
	"shearwarp/internal/machines"
	"shearwarp/internal/newalg"
	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/simengine"
	"shearwarp/internal/svmsim"
	"shearwarp/internal/warp"
)

// NewOptions configures a simulated run of the new parallel algorithm.
type NewOptions struct {
	Machine      machines.Machine
	Procs        int
	StealChunk   int     // rows per steal; 0 = the planner's heuristic
	ReprofileDeg float64 // 0 = 15 degrees
	DisableSteal bool
	// ForceBarrier re-inserts a global barrier between the compositing and
	// warp phases (ablation of the section 5.5.2 barrier elimination).
	ForceBarrier bool

	// granBytes is the coherence granularity fed to the steal-chunk
	// heuristic; RunNew and RunNewSVM set it from the machine's line or the
	// SVM page size.
	granBytes int
}

type newPhase int

const (
	npInit newPhase = iota
	npComposite
	npWarp
	npFrameDone
)

type newProcState struct {
	phase  newPhase
	frame  int
	cc     *composite.Ctx
	wc     *warp.Ctx
	ccCnt  composite.Counters
	wcCnt  warp.Counters
	tracer backTracer

	chunk     par.Chunk
	chunkBand int
	hasChunk  bool
	row       int
	steals    int

	tasks     []warp.Task
	taskIdx   int
	needNext  int // next band dependency to await for the current task
	rowCursor int
}

type newSim struct {
	w   *Workload
	opt NewOptions
	be  backend

	// The per-frame schedule: the planner the goroutine renderer runs.
	plan newalg.Planner

	// Per-frame shared state.
	inited   int
	fr       *render.Frame
	bandLock simengine.Lock
	conds    []simengine.Cond
	frameBar simengine.Barrier
	phaseBar simengine.Barrier

	frameEnds []int64
	wu        warmup
}

// RunNew executes the new parallel algorithm on a simulated hardware
// cache-coherent machine.
func RunNew(w *Workload, opt NewOptions) *Result {
	if opt.Procs < 1 {
		opt.Procs = 1
	}
	opt.granBytes = opt.Machine.Mem.LineBytes
	be := newHWBackend(opt.Machine.NewSystem(opt.Procs), w)
	return runNew(w, opt, be, opt.Machine.BarrierCost, opt.Machine.LockCost)
}

// RunNewSVM executes the new parallel algorithm on the SVM platform. The
// steal granularity heuristic sees the page size, so steals stay
// page-coarse (the access-pattern coarsening the paper credits for the SVM
// win).
func RunNewSVM(w *Workload, opt SVMOptions) *Result {
	opt.normalize()
	be := svmBackend{sys: svmsim.New(opt.Cfg)}
	nw := NewOptions{
		Procs: opt.Procs, StealChunk: opt.StealChunk,
		ForceBarrier: opt.ForceBarrier,
		granBytes:    opt.Cfg.PageBytes,
	}
	return runNew(w, nw, be, opt.Cfg.BarrierCost, opt.Cfg.LockCost)
}

func runNew(w *Workload, opt NewOptions, be backend, barrierCost, lockCost int64) *Result {
	w.resetImages()
	e := simengine.New(opt.Procs)
	e.BarrierCost = barrierCost
	e.LockCost = lockCost

	prog := &newSim{w: w, opt: opt, be: be, inited: -1}
	prog.plan = newalg.NewPlanner(newalg.Config{Procs: opt.Procs}, opt.StealChunk, opt.ReprofileDeg, opt.granBytes)
	prog.frameBar.Expected = opt.Procs
	prog.frameBar.ExtraDelay = be.barrierExtra()
	prog.phaseBar.Expected = opt.Procs
	prog.phaseBar.ExtraDelay = be.barrierExtra()
	for _, p := range e.Procs {
		tr := be.tracer(p.ID)
		p.Tracer = tr
		p.UserData = &newProcState{tracer: tr}
	}
	e.Run(prog)

	steals := 0
	for _, p := range e.Procs {
		steals += p.UserData.(*newProcState).steals
	}
	return collect(e, be, w.Frames[len(w.Frames)-1].Out, steals, prog.frameEnds, &prog.wu)
}

// ensureFrame plans frame idx the first time any processor reaches it and
// sets up the simulated completion conditions of its bands.
func (n *newSim) ensureFrame(e *simengine.Engine, p *simengine.Proc, idx int) {
	if idx <= n.inited {
		return
	}
	n.inited = idx
	n.fr = n.w.Frames[idx]
	n.plan.Plan(n.fr, n.w.Views[idx][0], n.w.Views[idx][1])
	n.bandLock = simengine.Lock{}
	n.conds = make([]simengine.Cond, n.opt.Procs)
	for b := range n.conds {
		if n.plan.Bands.Complete(b) {
			e.CondSignal(&n.conds[b], p.Clock)
		}
	}
	e.Work(p, frameSetupCycles)
}

// Step implements simengine.Program.
func (n *newSim) Step(e *simengine.Engine, p *simengine.Proc) bool {
	st := p.UserData.(*newProcState)
	switch st.phase {
	case npInit:
		if st.frame >= len(n.w.Views) {
			return false
		}
		n.ensureFrame(e, p, st.frame)
		fr := n.fr
		st.cc = fr.NewCompositeCtx()
		st.cc.Tracer = st.tracer
		st.cc.Arrays = n.w.CompArrays(fr.F.Axis)
		st.wc = warp.NewCtx(&fr.F, fr.M, fr.Out)
		st.wc.Tracer = st.tracer
		st.wc.Arrays = n.w.WarpArrays()
		st.hasChunk = false
		// Own warp tasks for this frame.
		st.tasks = st.tasks[:0]
		for _, tk := range n.plan.Tasks {
			if tk.Owner == p.ID {
				st.tasks = append(st.tasks, tk)
			}
		}
		st.taskIdx, st.needNext, st.rowCursor = 0, -1, 0
		p.SetPhase("composite")
		// The partition computation: each processor scans its share of the
		// cumulative profile (parallel prefix, section 4.3) and finds its
		// boundary by binary search.
		if n.plan.Balanced {
			share := (n.plan.Region.Hi - n.plan.Region.Lo) / n.opt.Procs
			lo := n.plan.Region.Lo + p.ID*share
			st.tracer.SetNow(p.Clock)
			st.tracer.Read(n.w.ProfileArray(), lo, max(share, 1))
			e.Work(p, int64(2*share+30))
			e.DrainTracer(p)
		}
		st.phase = npComposite
		return true

	case npComposite:
		if !st.hasChunk {
			// Own-band consumption is lock-free: the owner advances a
			// private head against a shared tail bound (the contiguous
			// initial assignment has no task queue, section 4.1).
			e.Work(p, atomicOpCycles)
			c, ok := n.plan.Bands.TakeOwn(p.ID)
			band := p.ID
			if !ok && !n.opt.DisableSteal {
				// Stealing mutates another band's bounds: that takes the
				// steal lock (section 4.4).
				e.Acquire(p, &n.bandLock)
				e.Work(p, queueOpCycles)
				if cs, vb, oks := n.plan.Bands.TakeSteal(); oks {
					c, band, ok = cs, vb, true
					st.steals++
				}
				e.Release(p, &n.bandLock)
			}
			if !ok {
				st.phase = npWarp
				if n.opt.ForceBarrier {
					// Ablation: the old algorithm's global phase barrier.
					e.BarrierArrive(p, &n.phaseBar)
					return true
				}
				p.SetPhase("warp")
				return true
			}
			st.chunk, st.chunkBand, st.row, st.hasChunk = c, band, c.Lo, true
			return true
		}
		st.tracer.SetNow(p.Clock)
		before := st.ccCnt.Samples
		cyc := st.cc.Scanline(st.row, &st.ccCnt)
		e.Work(p, cyc)
		if n.plan.Profiling {
			e.Work(p, n.plan.Record(st.row, cyc, st.ccCnt.Samples != before))
			st.tracer.Write(n.w.ProfileArray(), st.row, 1)
		}
		e.DrainTracer(p)
		st.row++
		if st.row >= st.chunk.Hi {
			st.hasChunk = false
			// Per-band completion counter: an atomic decrement.
			e.Work(p, atomicOpCycles)
			done := n.plan.Bands.MarkDone(st.chunkBand, st.chunk.Hi-st.chunk.Lo)
			if done {
				e.CondSignal(&n.conds[st.chunkBand], p.Clock)
			}
		}
		return true

	case npWarp:
		p.SetPhase("warp")
		if st.taskIdx >= len(st.tasks) {
			st.phase = npFrameDone
			e.BarrierArrive(p, &n.frameBar)
			return true
		}
		tk := st.tasks[st.taskIdx]
		// Await the compositing bands this task's reads depend on.
		if st.needNext < 0 {
			st.needNext = tk.NeedLo
		}
		for st.needNext <= tk.NeedHi {
			b := st.needNext
			st.needNext++
			if e.CondWait(p, &n.conds[b]) {
				return true
			}
		}
		// Warp a quantum of final-image rows.
		st.tracer.SetNow(p.Clock)
		before := st.wcCnt.Cycles
		hi := min(st.rowCursor+warpRowsPerQuantum, n.fr.Out.H)
		for y := st.rowCursor; y < hi; y++ {
			if x0, x1, ok := st.wc.RowSpan(y, tk.Band); ok {
				st.wc.WarpSpan(y, x0, x1, &st.wcCnt)
			}
		}
		e.Work(p, st.wcCnt.Cycles-before+int64(hi-st.rowCursor))
		e.DrainTracer(p)
		st.rowCursor = hi
		if st.rowCursor >= n.fr.Out.H {
			st.taskIdx++
			st.needNext = -1
			st.rowCursor = 0
		}
		return true

	case npFrameDone:
		if st.frame == len(n.frameEnds) {
			n.frameEnds = append(n.frameEnds, p.Clock)
			if st.frame == 0 && len(n.w.Views) > 1 {
				n.be.resetStats()
				n.wu.take(e)
			}
		}
		if st.frame == n.inited {
			// The first processor past the frame barrier commits the
			// frame's profile (later calls are no-ops); once one has
			// planned the next frame, the check keeps the rest out.
			n.plan.Commit()
		}
		st.frame++
		st.phase = npInit
		return true
	}
	return false
}
