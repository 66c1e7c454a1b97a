package newalg

import (
	"testing"

	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
)

func TestMatchesSerialAcrossProcs(t *testing.T) {
	r := render.New(vol.MRIBrain(24), render.Options{})
	want, _ := r.RenderSerial(0.5, 0.3)
	for _, procs := range []int{1, 2, 3, 7, 16} {
		nr := NewRenderer(r, Config{Procs: procs})
		res := nr.RenderFrame(0.5, 0.3)
		if !img.Equal(want, res.Out) {
			d := img.Compare(want, res.Out)
			t.Fatalf("procs=%d: image differs from serial: %+v", procs, d)
		}
	}
}

func TestAnimationMatchesSerialEveryFrame(t *testing.T) {
	r := render.New(vol.MRIBrain(20), render.Options{})
	nr := NewRenderer(r, Config{Procs: 4})
	for _, v := range render.Rotation(6, 0.1, 0.25, 7) {
		want, _ := r.RenderSerial(v[0], v[1])
		res := nr.RenderFrame(v[0], v[1])
		if !img.Equal(want, res.Out) {
			t.Fatalf("view %v: new-algorithm image differs from serial", v)
		}
	}
}

func TestProfilingCadence(t *testing.T) {
	r := render.New(vol.MRIBrain(20), render.Options{})
	nr := NewRenderer(r, Config{Procs: 2})
	profiled := 0
	// 7-degree steps: profile on frame 0, then every ~2-3 frames.
	for _, v := range render.Rotation(8, 0.1, 0.2, 7) {
		res := nr.RenderFrame(v[0], v[1])
		if res.Profiled {
			profiled++
		}
	}
	if profiled < 2 || profiled >= 8 {
		t.Fatalf("profiled %d of 8 frames; want re-profiling every ~2 frames, not all", profiled)
	}
}

func TestProfileDrivenPartitionIsBalanced(t *testing.T) {
	r := render.New(vol.MRIBrain(32), render.Options{})
	nr := NewRenderer(r, Config{Procs: 4})
	nr.RenderFrame(0.3, 0.2)         // profiling frame (uniform partition)
	res := nr.RenderFrame(0.33, 0.2) // profile-balanced frame
	if res.Profiled {
		t.Fatal("second close frame should reuse the profile")
	}
	// Measure the imbalance of the used partition against this frame's
	// actual per-scanline cost (collect it via a third profiled run).
	nr2 := NewRenderer(r, Config{Procs: 1, AlwaysProfile: true})
	nr2.RenderFrame(0.33, 0.2)
	actual := nr2.Profile()
	ib := Imbalance(actual, res.Boundaries)
	if ib > 1.35 {
		t.Fatalf("profile-driven partition imbalance %.2f, want near 1", ib)
	}
	// Compare with the uniform partition over the whole image: it must be
	// clearly worse (the empty borders plus the cost hump).
	uni := make([]int, 5)
	for p := range uni {
		uni[p] = p * len(actual) / 4
	}
	if ibu := Imbalance(actual, uni); ibu <= ib {
		t.Fatalf("uniform imbalance %.2f not worse than profiled %.2f", ibu, ib)
	}
}

func TestRegionSkipsEmptyBorders(t *testing.T) {
	r := render.New(vol.MRIBrain(32), render.Options{})
	nr := NewRenderer(r, Config{Procs: 2})
	nr.RenderFrame(0.3, 0.2)
	res := nr.RenderFrame(0.32, 0.2)
	if res.Region.Lo == 0 && res.Region.Hi == r.Setup(0.32, 0.2).M.H {
		t.Fatal("region did not shrink despite empty border scanlines")
	}
	// The composited scanline count must match the region, not the image.
	st := res.Stats()
	if got := int(st.Composite.Scanlines); got != res.Region.Hi-res.Region.Lo {
		t.Fatalf("composited %d scanlines, region has %d", got, res.Region.Hi-res.Region.Lo)
	}
}

func TestStealingOccursUnderSkew(t *testing.T) {
	// With a uniform partition on the first (profiling) frame, the empty
	// borders make outer bands finish early, so they steal (one row at a
	// time: the steal heuristic's floor at this size).
	r := render.New(vol.MRIBrain(32), render.Options{})
	nr := NewRenderer(r, Config{Procs: 8})
	res := nr.RenderFrame(0.4, 0.2)
	steals := 0
	for _, ps := range res.PerProc {
		steals += ps.Steals
	}
	if steals == 0 {
		t.Fatal("no steals on a skewed uniform partition")
	}
	want, _ := r.RenderSerial(0.4, 0.2)
	if !img.Equal(want, res.Out) {
		t.Fatal("stealing corrupted the image")
	}
}

func TestFindRegion(t *testing.T) {
	cases := []struct {
		profile []int64
		lo, hi  int
	}{
		{[]int64{0, 0, 5, 7, 0, 0}, 1, 5},
		{[]int64{3, 1, 2}, 0, 3},
		{[]int64{0, 0, 0}, 0, 0},
		{[]int64{0, 9, 0}, 0, 3},
		{[]int64{9}, 0, 1},
	}
	for _, c := range cases {
		r := FindRegion(c.profile)
		if r.Lo != c.lo || r.Hi != c.hi {
			t.Errorf("FindRegion(%v) = %+v, want [%d,%d)", c.profile, r, c.lo, c.hi)
		}
	}
}

func TestPartitionEqualArea(t *testing.T) {
	profile := make([]int64, 100)
	for i := range profile {
		profile[i] = 10 // uniform cost
	}
	bd := Partition(profile, Region{0, 100}, 4, 1)
	want := []int{0, 25, 50, 75, 100}
	for i := range want {
		// Equal-area on a uniform profile is an even split (within 1).
		if d := bd[i] - want[i]; d < -1 || d > 1 {
			t.Fatalf("boundaries = %v, want ~%v", bd, want)
		}
	}
}

func TestPartitionSkewedProfile(t *testing.T) {
	// All cost in the first 10 rows: the boundaries must crowd there.
	profile := make([]int64, 100)
	for i := 0; i < 10; i++ {
		profile[i] = 1000
	}
	bd := Partition(profile, Region{0, 100}, 4, 2)
	if bd[1] > 5 || bd[2] > 8 || bd[3] > 10 {
		t.Fatalf("boundaries %v do not track the skewed profile", bd)
	}
	if ib := Imbalance(profile, bd); ib > 1.5 {
		t.Fatalf("imbalance %.2f on skewed profile", ib)
	}
}

func TestPartitionMonotone(t *testing.T) {
	profile := []int64{0, 0, 1000000, 0, 0, 0, 1, 0}
	bd := Partition(profile, FindRegion(profile), 6, 1)
	for i := 1; i < len(bd); i++ {
		if bd[i] < bd[i-1] {
			t.Fatalf("boundaries not monotone: %v", bd)
		}
	}
	if bd[0] != 1 || bd[len(bd)-1] != 8 {
		t.Fatalf("boundaries %v do not span the region", bd)
	}
}

func TestPartitionZeroProfileFallsBack(t *testing.T) {
	profile := make([]int64, 40)
	bd := Partition(profile, Region{0, 40}, 4, 1)
	if bd[0] != 0 || bd[4] != 40 {
		t.Fatalf("boundaries %v must span region", bd)
	}
	for i := 1; i < 4; i++ {
		if bd[i] != i*10 {
			t.Fatalf("zero profile should split uniformly: %v", bd)
		}
	}
}

func TestStealChunkSizeHeuristic(t *testing.T) {
	if c := stealChunkSize(0, 4, 64); c != 1 {
		t.Fatal("empty region must give chunk 1")
	}
	if c := stealChunkSize(512, 4, 64); c < 1 || c > 32 {
		t.Fatalf("chunk %d out of bounds", c)
	}
	small := stealChunkSize(512, 32, 64)
	big := stealChunkSize(512, 2, 64)
	if small > big {
		t.Fatal("chunk should shrink with more processors")
	}
	coarse := stealChunkSize(512, 8, 4096)
	fine := stealChunkSize(512, 8, 64)
	if coarse < fine {
		t.Fatal("coarser coherence granularity should coarsen steals")
	}
}

func TestProfileOverheadInBand(t *testing.T) {
	// 12.5% is inside the paper's 10-15% measured overhead.
	oh := profileOverheadCycles(1000)
	if oh < 100 || oh > 150 {
		t.Fatalf("overhead %d of 1000 outside 10-15%%", oh)
	}
}

func TestOpacityCorrectionMatchesSerial(t *testing.T) {
	r := render.New(vol.MRIBrain(20), render.Options{OpacityCorrection: true})
	want, _ := r.RenderSerial(0.5, 0.3)
	nr := NewRenderer(r, Config{Procs: 4})
	res := nr.RenderFrame(0.5, 0.3)
	if !img.Equal(want, res.Out) {
		t.Fatal("corrected parallel image differs from corrected serial")
	}
}
