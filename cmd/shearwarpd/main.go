// Command shearwarpd serves rendered frames over HTTP from a pool of
// persistent renderers, amortizing the view-independent preprocessing
// (classification, per-axis run-length encoding) across requests through
// an LRU cache.
//
// Endpoints:
//
//	GET /render?volume=mri&yaw=30&pitch=15[&alg=new][&transfer=mri][&mode=mip][&iso=140][&format=ppm]
//	GET /healthz
//	GET /readyz         (503 once graceful shutdown begins — fleet routability)
//	GET /metrics        (JSON; Prometheus text under Accept: text/plain)
//	GET /debug/spans    (Chrome trace-event JSON; ?view=timeline for text bars)
//	GET /debug/trace    (alias of /debug/spans, so gateway trace URLs resolve here too)
//	GET /debug/latency  (latency quantile digests as JSON)
//	GET /debug/slo      (SLO compliance, error budgets and burn-rate alerts as JSON)
//	GET /debug/dash     (self-contained HTML ops dashboard)
//	GET /debug/profile?seconds=2[&during=render]  (pprof CPU profile)
//
// With no -in the service registers the two synthetic phantoms under the
// names "mri" and "ct"; with -in FILE it registers that volume under the
// file's base name.
//
// Usage:
//
//	shearwarpd -addr :8080 -size 128 -procs 8 -max-concurrent 8
//	shearwarpd -in brain.vol -alg new -cache-mb 512
//	curl 'localhost:8080/render?volume=mri&yaw=45&pitch=20&format=png' > frame.png
//	curl 'localhost:8080/render?volume=ct&yaw=45&pitch=20&mode=iso&iso=140&format=png' > surface.png
//
// The -mode and -iso flags set the defaults for requests that omit the
// mode= and iso= parameters; -slo "" turns the SLO engine off. Every
// service flag is declared, with its shipped default, by
// server.Config.RegisterFlags; this command adds only the volume
// and mode flags, -tenants and -addr.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"shearwarp"
	"shearwarp/internal/cli"
	"shearwarp/internal/server"
	"shearwarp/internal/vol"
)

func main() {
	var vf cli.VolumeFlags
	vf.Register(flag.CommandLine)
	var cfg server.Config
	cfg.RegisterFlags(flag.CommandLine)
	cli.RegisterMode(flag.CommandLine, &cfg.Mode, &cfg.IsoThreshold)
	addr := flag.String("addr", ":8080", "listen address")
	tenants := flag.Int("tenants", 0, "register N extra synthetic volumes (vol00..) with distinct content for multi-tenant load tests")
	flag.Parse()

	srv := server.New(cfg)
	if vf.In != "" {
		v, tf, err := vf.Load()
		if err != nil {
			fatal(err)
		}
		if err := srv.RegisterVolume(vf.Name(), v.Data, v.Nx, v.Ny, v.Nz, tf); err != nil {
			fatal(err)
		}
	} else {
		m := vol.MRIBrain(vf.Size)
		c := vol.CTHead(vf.Size)
		if err := srv.RegisterVolume("mri", m.Data, m.Nx, m.Ny, m.Nz, shearwarp.TransferMRI); err != nil {
			fatal(err)
		}
		if err := srv.RegisterVolume("ct", c.Data, c.Nx, c.Ny, c.Nz, shearwarp.TransferCT); err != nil {
			fatal(err)
		}
	}
	// Extra synthetic tenants for multi-tenant load tests: alternating
	// phantom kinds at staggered sizes, so every tenant has distinct
	// content (a distinct cache fingerprint) and build cost.
	for i := 0; i < *tenants; i++ {
		size := 24 + (i%32)*4
		var v *vol.Volume
		tf := shearwarp.TransferMRI
		if i%2 == 0 {
			v = vol.MRIBrain(size)
		} else {
			v, tf = vol.CTHead(size), shearwarp.TransferCT
		}
		if err := srv.RegisterVolume(fmt.Sprintf("vol%02d", i), v.Data, v.Nx, v.Ny, v.Nz, tf); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("shearwarpd: serving %v on %s (alg %s, %d procs, %d concurrent)\n",
		srv.Volumes(), *addr, cfg.Algorithm, srv.Procs(), cfg.MaxConcurrent)
	// Graceful shutdown: flip /readyz unready, drain in-flight HTTP
	// requests, then release the renderer pools' worker goroutines.
	if err := cli.Serve("shearwarpd", &http.Server{Addr: *addr, Handler: srv.Handler()}, srv.BeginDrain); err != nil {
		fatal(err)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shearwarpd:", err)
	os.Exit(1)
}
