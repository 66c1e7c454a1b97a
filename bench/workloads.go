package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"shearwarp"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// scene is one (volume, transfer, mode) the workload renders, with its
// viewpoint list and the oracle hash of every viewpoint's frame.
type scene struct {
	name   string // tenant name on the service workloads
	ct     bool
	n      int
	mode   shearwarp.Mode
	vol    *vol.Volume
	views  [][2]float64 // yaw, pitch in degrees; the same list for every seed
	oracle []uint64     // hash of the serial frame's PPM bytes, per view

	// Library workloads: the seed picks where in the list the animation
	// starts and which way it runs. Set-up always renders views[0], so
	// setup_s does not depend on the seed (which principal axis the first
	// frame encodes would otherwise move it by a third).
	start, step int
}

// frame returns the index of the animation's i-th viewpoint.
func (s *scene) frame(i int) int {
	n := len(s.views)
	return ((s.start+s.step*i)%n + n) % n
}

func (s *scene) transfer() shearwarp.Transfer {
	if s.ct {
		return shearwarp.TransferCT
	}
	return shearwarp.TransferMRI
}

// generate synthesizes the scene's phantom (outside every timer).
func (s *scene) generate() {
	if s.ct {
		s.vol = vol.CTHead(s.n)
	} else {
		s.vol = vol.MRIBrain(s.n)
	}
}

// warmViews picks the viewpoints that finish the scene's lazy set-up before
// timing: every fourth one, so buffers grow to the sizes the workload meets
// and each renderer of a pool is touched, plus the first viewpoint on each
// principal axis, because an axis's encoding builds on first use.
func (s *scene) warmViews() []int {
	var out []int
	seen := make(map[xform.Axis]bool)
	for vi, vw := range s.views {
		v := s.vol
		axis := xform.Factorize(v.Nx, v.Ny, v.Nz, xform.ViewMatrix(v.Nx, v.Ny, v.Nz, vw[0]*math.Pi/180, vw[1]*math.Pi/180)).Axis
		if vi%4 == 0 || !seen[axis] {
			out = append(out, vi)
		}
		seen[axis] = true
	}
	return out
}

// request is one draw of the service workloads: a tenant and one of its
// fixed viewpoints.
type request struct{ scene, view int }

// workload is one set of inputs. The seed picks viewpoint order and tenant
// draws; the program under test only ever sees the generated inputs.
type workload struct {
	def     workloadDef
	service bool

	// Library workloads: the main NewParallel renderers take the scenes in
	// turn; a Serial twin (and, with oldTwin, an OldParallel twin) renders
	// one viewpoint of every round again.
	oldTwin bool

	// Service workloads.
	format string  // "ppm" or "png"
	fleet  bool    // two backends behind a gateway instead of one server
	rate   float64 // paced phase, requests per second (absolute, same on every commit)

	scenes []*scene
	reqs   []request
	paths  [2][][]string // /render path per [serial twin?][scene][view], built once
}

// view3 rounds a viewpoint angle to millidegrees so the URL's decimal form
// parses back to the identical float64 the oracle rendered.
func view3(x float64) float64 { return math.Round(x*1000) / 1000 }

// goldenViews returns n viewpoints spread by the golden angle in yaw and
// the golden ratio in pitch (±30°), starting at index phase.
func goldenViews(n, phase int) [][2]float64 {
	vs := make([][2]float64, n)
	for i := range vs {
		k := float64(i + phase)
		yaw := math.Mod(k*137.50776405, 360)
		_, frac := math.Modf(k * 0.618033988749895)
		vs[i] = [2]float64{view3(yaw), view3(-30 + 60*frac)}
	}
	return vs
}

func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{}
	for _, d := range workloadDefs {
		if d.Name == name {
			w.def = d
		}
	}
	switch name {
	case "rotate-256":
		// A full 360° rotation in 3° steps at pitch 15° (crosses principal
		// axes); the seed picks where it starts and which way it turns.
		views := make([][2]float64, 120)
		for i := range views {
			views[i] = [2]float64{float64(3 * i), 15}
		}
		w.scenes = []*scene{{name: "mri256", n: 256, views: views, start: rng.Intn(120), step: 1 - 2*rng.Intn(2)}}
		w.oldTwin = true
	case "modes-128":
		for _, ct := range []bool{false, true} {
			for _, m := range []shearwarp.Mode{shearwarp.ModeComposite, shearwarp.ModeMIP, shearwarp.ModeIsosurface} {
				kind := "mri"
				if ct {
					kind = "ct"
				}
				w.scenes = append(w.scenes, &scene{
					name: kind + "128-" + m.String(), ct: ct, n: 128, mode: m,
					views: goldenViews(64, 1000*len(w.scenes)), start: rng.Intn(64), step: 1,
				})
			}
		}
	case "serve-png-128":
		w.service, w.format, w.rate = true, "png", 100
		w.scenes = []*scene{
			{name: "mri", n: 128, views: goldenViews(90, 0)},
			{name: "ct", ct: true, n: 128, views: goldenViews(90, 1000)},
		}
		w.reqs = make([]request, 1<<14)
		for i := range w.reqs {
			w.reqs[i] = request{rng.Intn(2), rng.Intn(90)}
		}
	case "gateway-small":
		w.service, w.format, w.fleet, w.rate = true, "ppm", true, 600
		for i := 0; i < 8; i++ {
			w.scenes = append(w.scenes, &scene{
				name: fmt.Sprintf("t%d", i), ct: i%2 == 1, n: 32 + 4*i,
				views: goldenViews(45, 1000*i),
			})
		}
		zipf := rand.NewZipf(rng, 1.2, 1, 7)
		w.reqs = make([]request, 1<<16)
		for i := range w.reqs {
			w.reqs[i] = request{int(zipf.Uint64()), rng.Intn(45)}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, s := range w.scenes {
		s.generate()
		if !w.service {
			continue
		}
		for twin, alg := range []string{"", "serial"} {
			ps := make([]string, len(s.views))
			for i, vw := range s.views {
				ps[i] = renderPath(s.name, vw, w.format, alg)
			}
			w.paths[twin] = append(w.paths[twin], ps)
		}
	}
	return w, nil
}

// renderPath is the /render URL path and query of one request. Only the
// parameters a client must send are set: everything else is the shipped
// default of the server.
func renderPath(volume string, view [2]float64, format, alg string) string {
	q := url.Values{}
	q.Set("volume", volume)
	q.Set("yaw", strconv.FormatFloat(view[0], 'f', -1, 64))
	q.Set("pitch", strconv.FormatFloat(view[1], 'f', -1, 64))
	q.Set("format", format)
	if alg != "" {
		q.Set("alg", alg)
	}
	return "/render?" + q.Encode()
}

// path is the request as the workload sends it, or its alg=serial twin.
func (w *workload) path(r request, serialTwin bool) string {
	if serialTwin {
		return w.paths[1][r.scene][r.view]
	}
	return w.paths[0][r.scene][r.view]
}
