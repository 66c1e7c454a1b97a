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
// mode= and iso= parameters.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shearwarp"
	"shearwarp/internal/cli"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/server"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
)

func main() {
	var vf cli.VolumeFlags
	vf.Register(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address")
	algName := flag.String("alg", "new", "default algorithm: serial | old | new | raycast")
	var mf cli.ModeFlag
	mf.Register(flag.CommandLine)
	procs := flag.Int("procs", 0, "workers inside each parallel render (0 = GOMAXPROCS)")
	pool := flag.Int("pool", 0, "renderers per (volume, transfer, algorithm) pool (0 = max-concurrent)")
	maxConcurrent := flag.Int("max-concurrent", 8, "frames rendering at once")
	maxQueue := flag.Int("max-queue", 0, "requests waiting for admission before 503 (0 = 4*max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "longest admission wait before 503")
	renderTimeout := flag.Duration("render-timeout", 30*time.Second, "request deadline to start rendering")
	cacheMB := flag.Int64("cache-mb", 256, "preprocessing cache budget in MiB (<0 = unbounded)")
	watchdog := flag.Duration("watchdog", 0, "cancel frames still rendering after this long and answer 500 (0 = off)")
	faultSpec := flag.String("fault-spec", "", "inject deterministic faults for chaos testing, e.g. 'panic@composite:w=1;delay@scanline:n=100:d=2ms' (see internal/faultinject)")
	logFormat := flag.String("log-format", "", "structured log format: text | json (empty = logging off)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	traceRing := flag.Int("trace-ring", 64, "recent request traces retained for /debug/spans (<0 = none, /debug/spans off)")
	sloSpec := flag.String("slo", slo.DefaultSpec, "service-level objectives for /debug/slo, e.g. 'latency@/render:le=250ms:target=99%;availability@/render:target=99.9%' (empty = engine off)")
	sloInterval := flag.Duration("slo-interval", 10*time.Second, "SLO engine background sampling period")
	tenants := flag.Int("tenants", 0, "register N extra synthetic volumes (vol00..) with distinct content for multi-tenant load tests")
	flag.Parse()

	alg, err := shearwarp.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	mode, isoThr, err := mf.Mode()
	if err != nil {
		fatal(err)
	}
	faults, err := faultinject.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if faults != nil {
		fmt.Fprintf(os.Stderr, "shearwarpd: FAULT INJECTION ACTIVE: %s\n", *faultSpec)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	objectives, err := slo.Parse(*sloSpec)
	if err != nil {
		fatal(err)
	}
	sloTick := *sloInterval
	if *sloSpec == "" {
		sloTick = -1 // empty spec = engine off
	}
	logger := telemetry.NewLogger(os.Stderr, *logFormat, level)
	srv := server.New(server.Config{
		Procs:           *procs,
		Algorithm:       alg,
		Mode:            mode,
		IsoThreshold:    isoThr,
		PoolSize:        *pool,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		RenderTimeout:   *renderTimeout,
		CacheBytes:      *cacheMB << 20,
		WatchdogTimeout: *watchdog,
		Faults:          faults,
		Logger:          logger,
		TraceRing:       *traceRing,
		SLO:             objectives,
		SLOInterval:     sloTick,
	})

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
	srv.PublishExpvar()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	hs := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("shearwarpd: serving %v on %s (alg %s, %d procs, %d concurrent)\n",
		srv.Volumes(), *addr, alg, srv.Procs(), *maxConcurrent)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: flip /readyz unready first so fleet health
	// checkers stop routing here while the listener is still up, then
	// stop accepting, drain in-flight HTTP requests, and release the
	// renderer pools' worker goroutines.
	fmt.Println("shearwarpd: shutting down")
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "shearwarpd: shutdown:", err)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shearwarpd:", err)
	os.Exit(1)
}
