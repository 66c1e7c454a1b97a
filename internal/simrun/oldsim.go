package simrun

import (
	"shearwarp/internal/composite"
	"shearwarp/internal/machines"
	"shearwarp/internal/oldalg"
	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/simengine"
	"shearwarp/internal/svmsim"
	"shearwarp/internal/warp"
)

// OldOptions configures a simulated run of the old parallel algorithm.
type OldOptions struct {
	Machine   machines.Machine
	Procs     int
	ChunkSize int // 0 = oldalg.DefaultChunkSize
}

// oldPhase enumerates the per-processor state machine.
type oldPhase int

const (
	opInit oldPhase = iota
	opComposite
	opWarp
	opFrameDone
)

type oldProcState struct {
	phase    oldPhase
	frame    int
	cc       *composite.Ctx
	wc       *warp.Ctx
	ccCnt    composite.Counters
	wcCnt    warp.Counters
	tracer   backTracer
	chunk    par.Chunk
	hasChunk bool
	row      int
	tileSeq  int // index into the round-robin tile sequence
	steals   int
}

type oldSim struct {
	w   *Workload
	opt OldOptions
	be  backend

	inited   int // highest frame index whose shared state is built
	fr       *render.Frame
	queue    *par.Interleaved
	qlock    simengine.Lock
	phaseBar simengine.Barrier
	frameBar simengine.Barrier
	tiles    [][4]int

	frameEnds []int64
	wu        warmup
}

// RunOld executes the old parallel algorithm on a simulated hardware
// cache-coherent machine.
func RunOld(w *Workload, opt OldOptions) *Result {
	if opt.Procs < 1 {
		opt.Procs = 1
	}
	be := newHWBackend(opt.Machine.NewSystem(opt.Procs), w)
	return runOld(w, opt, be, opt.Machine.BarrierCost, opt.Machine.LockCost)
}

// SVMOptions configures a run on the shared-virtual-memory platform.
type SVMOptions struct {
	Procs int
	Cfg   svmsim.Config // zero value selects svmsim.Default
	// New-algorithm knobs, as in NewOptions.
	StealChunk   int
	ForceBarrier bool
}

func (o *SVMOptions) normalize() {
	if o.Procs < 1 {
		o.Procs = 1
	}
	if o.Cfg.PageBytes == 0 {
		o.Cfg = svmsim.Default(o.Procs)
	}
	o.Cfg.Procs = o.Procs
}

// RunOldSVM executes the old parallel algorithm on the SVM platform.
func RunOldSVM(w *Workload, opt SVMOptions) *Result {
	opt.normalize()
	be := svmBackend{sys: svmsim.New(opt.Cfg)}
	old := OldOptions{Procs: opt.Procs}
	return runOld(w, old, be, opt.Cfg.BarrierCost, opt.Cfg.LockCost)
}

func runOld(w *Workload, opt OldOptions, be backend, barrierCost, lockCost int64) *Result {
	w.resetImages()
	e := simengine.New(opt.Procs)
	e.BarrierCost = barrierCost
	e.LockCost = lockCost

	prog := &oldSim{w: w, opt: opt, be: be, inited: -1}
	prog.phaseBar.Expected = opt.Procs
	prog.phaseBar.ExtraDelay = be.barrierExtra()
	prog.frameBar.Expected = opt.Procs
	prog.frameBar.ExtraDelay = be.barrierExtra()
	for _, p := range e.Procs {
		tr := be.tracer(p.ID)
		p.Tracer = tr
		p.UserData = &oldProcState{tracer: tr}
	}
	e.Run(prog)

	steals := 0
	for _, p := range e.Procs {
		steals += p.UserData.(*oldProcState).steals
	}
	return collect(e, be, w.Frames[len(w.Frames)-1].Out, steals, prog.frameEnds, &prog.wu)
}

// ensureFrame builds the shared per-frame state the first time any
// processor reaches frame idx.
func (o *oldSim) ensureFrame(e *simengine.Engine, p *simengine.Proc, idx int) {
	if idx <= o.inited {
		return
	}
	o.inited = idx
	o.fr = o.w.Frames[idx]
	chunk := o.opt.ChunkSize
	if chunk < 1 {
		chunk = oldalg.DefaultChunkSize(o.fr.M.H, o.opt.Procs)
	}
	// The old algorithm blindly composites the whole intermediate image.
	o.queue = par.NewInterleaved(0, o.fr.M.H, chunk, o.opt.Procs)
	o.tiles = par.TileGrid(o.tiles, o.fr.Out.W, o.fr.Out.H, oldalg.TileSize)
	e.Work(p, frameSetupCycles)
}

// Step implements simengine.Program.
func (o *oldSim) Step(e *simengine.Engine, p *simengine.Proc) bool {
	st := p.UserData.(*oldProcState)
	switch st.phase {
	case opInit:
		if st.frame >= len(o.w.Views) {
			return false
		}
		o.ensureFrame(e, p, st.frame)
		fr := o.fr
		st.cc = fr.NewCompositeCtx()
		st.cc.Tracer = st.tracer
		st.cc.Arrays = o.w.CompArrays(fr.F.Axis)
		st.wc = warp.NewCtx(&fr.F, fr.M, fr.Out)
		st.wc.Tracer = st.tracer
		st.wc.Arrays = o.w.WarpArrays()
		st.tileSeq = 0
		st.hasChunk = false
		p.SetPhase("composite")
		st.phase = opComposite
		return true

	case opComposite:
		if !st.hasChunk {
			e.Acquire(p, &o.qlock)
			e.Work(p, queueOpCycles)
			c, stolen, ok := o.queue.Next(p.ID)
			e.Release(p, &o.qlock)
			if !ok {
				// Global barrier between compositing and warping; the wait
				// is charged to the compositing phase (it is compositing
				// imbalance plus the barrier operation).
				st.phase = opWarp
				e.BarrierArrive(p, &o.phaseBar)
				return true
			}
			if stolen {
				st.steals++
			}
			st.chunk, st.row, st.hasChunk = c, c.Lo, true
			return true
		}
		st.tracer.SetNow(p.Clock)
		cyc := st.cc.Scanline(st.row, &st.ccCnt)
		e.Work(p, cyc)
		e.DrainTracer(p)
		st.row++
		if st.row >= st.chunk.Hi {
			st.hasChunk = false
		}
		return true

	case opWarp:
		p.SetPhase("warp")
		tile := p.ID + st.tileSeq*o.opt.Procs
		if tile >= len(o.tiles) {
			st.phase = opFrameDone
			e.BarrierArrive(p, &o.frameBar)
			return true
		}
		st.tileSeq++
		tl := o.tiles[tile]
		st.tracer.SetNow(p.Clock)
		before := st.wcCnt.Cycles
		st.wc.WarpTile(tl[0], tl[1], tl[2], tl[3], &st.wcCnt)
		e.Work(p, st.wcCnt.Cycles-before)
		e.DrainTracer(p)
		return true

	case opFrameDone:
		if st.frame == len(o.frameEnds) {
			// First processor past the frame barrier records the frame end;
			// after the warm-up frame the memory statistics are reset so
			// steady-state numbers exclude cold misses (as the paper does).
			o.frameEnds = append(o.frameEnds, p.Clock)
			if st.frame == 0 && len(o.w.Views) > 1 {
				o.be.resetStats()
				o.wu.take(e)
			}
		}
		st.frame++
		st.phase = opInit
		return true
	}
	return false
}
