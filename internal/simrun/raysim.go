package simrun

import (
	"shearwarp/internal/machines"
	"shearwarp/internal/par"
	"shearwarp/internal/raycast"
	"shearwarp/internal/render"
	"shearwarp/internal/simengine"
)

// RayOptions configures a simulated run of the parallel ray caster (Nieh &
// Levoy's decomposition: interleaved image tiles with stealing). The paper
// uses the ray caster's good self-relative speedup as the foil for the old
// shear warper's poor one (section 3.4.1).
type RayOptions struct {
	Machine machines.Machine
	Procs   int
}

// rayTileSize is the edge, in pixels, of the ray caster's square image
// tiles.
const rayTileSize = 8

type rayPhase int

const (
	rpInit rayPhase = iota
	rpCast
	rpFrameDone
)

type rayProcState struct {
	phase   rayPhase
	frame   int
	cnt     raycast.Counters
	tracer  backTracer
	tc      raycast.TraceCtx
	tile    [4]int
	hasTile bool
	row     int
	steals  int
}

type raySim struct {
	w   *Workload
	opt RayOptions
	be  backend
	rc  *raycast.Renderer
	tc  raycast.TraceCtx // template: arrays shared, tracer set per proc

	inited   int
	fr       *render.Frame
	tiles    [][4]int
	queue    *par.Interleaved
	qlock    simengine.Lock
	frameBar simengine.Barrier

	frameEnds []int64
	wu        warmup
}

// RunRayCast executes the parallel ray caster on a simulated hardware
// machine over the workload's animation.
func RunRayCast(w *Workload, opt RayOptions) *Result {
	if opt.Procs < 1 {
		opt.Procs = 1
	}
	w.resetImages()
	prog := &raySim{w: w, opt: opt, inited: -1}
	prog.rc, prog.tc = w.RayCaster() // register arrays before the segment snapshot
	be := newHWBackend(opt.Machine.NewSystem(opt.Procs), w)
	prog.be = be
	e := simengine.New(opt.Procs)
	e.BarrierCost = opt.Machine.BarrierCost
	e.LockCost = opt.Machine.LockCost
	prog.frameBar.Expected = opt.Procs
	for _, p := range e.Procs {
		tr := be.tracer(p.ID)
		p.Tracer = tr
		st := &rayProcState{tracer: tr, tc: prog.tc}
		st.tc.Tracer = tr
		p.UserData = st
	}
	e.Run(prog)

	steals := 0
	for _, p := range e.Procs {
		steals += p.UserData.(*rayProcState).steals
	}
	return collect(e, be, w.Frames[len(w.Frames)-1].Out, steals, prog.frameEnds, &prog.wu)
}

func (rs *raySim) ensureFrame(e *simengine.Engine, p *simengine.Proc, idx int) {
	if idx <= rs.inited {
		return
	}
	rs.inited = idx
	rs.fr = rs.w.Frames[idx]
	rs.tiles = par.TileGrid(rs.tiles, rs.fr.Out.W, rs.fr.Out.H, rayTileSize)
	rs.queue = par.NewInterleaved(0, len(rs.tiles), 1, rs.opt.Procs)
	e.Work(p, frameSetupCycles)
}

// Step implements simengine.Program: the quantum is one tile row of rays.
func (rs *raySim) Step(e *simengine.Engine, p *simengine.Proc) bool {
	st := p.UserData.(*rayProcState)
	switch st.phase {
	case rpInit:
		if st.frame >= len(rs.w.Views) {
			return false
		}
		rs.ensureFrame(e, p, st.frame)
		st.hasTile = false
		p.SetPhase("raycast")
		st.phase = rpCast
		return true

	case rpCast:
		if !st.hasTile {
			e.Acquire(p, &rs.qlock)
			e.Work(p, queueOpCycles)
			c, stolen, ok := rs.queue.Next(p.ID)
			e.Release(p, &rs.qlock)
			if !ok {
				st.phase = rpFrameDone
				e.BarrierArrive(p, &rs.frameBar)
				return true
			}
			if stolen {
				st.steals++
			}
			st.tile = rs.tiles[c.Lo]
			st.row = st.tile[1]
			st.hasTile = true
			return true
		}
		st.tracer.SetNow(p.Clock)
		before := st.cnt.Cycles
		rs.rc.RenderTileTraced(&rs.fr.F, rs.fr.Out,
			st.tile[0], st.row, st.tile[2], st.row+1, &st.cnt, &st.tc)
		e.Work(p, st.cnt.Cycles-before)
		e.DrainTracer(p)
		st.row++
		if st.row >= st.tile[3] {
			st.hasTile = false
		}
		return true

	case rpFrameDone:
		if st.frame == len(rs.frameEnds) {
			rs.frameEnds = append(rs.frameEnds, p.Clock)
			if st.frame == 0 && len(rs.w.Views) > 1 {
				rs.be.resetStats()
				rs.wu.take(e)
			}
		}
		st.frame++
		st.phase = rpInit
		return true
	}
	return false
}
