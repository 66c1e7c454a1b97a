// Command shearwarpgw is the resilient front door over a fleet of
// shearwarpd backends. It proxies /render with volume-affine consistent
// hashing (bounded-load), actively health-checks each backend's
// /readyz, retries retryable failures with jittered backoff, hedges the
// latency tail, and ejects misbehaving backends behind per-backend
// circuit breakers.
//
// Every proxied request is minted a fleet trace ID, forwarded to the
// backends on every attempt, and echoed to the client in
// X-Shearwarp-Trace; /debug/trace?id=N stitches the gateway's attempt
// spans with every touched backend's span sets into one clock-aligned
// Chrome trace-event document.
//
// Endpoints:
//
//	GET /render       (proxied to the fleet; budget= caps the request deadline)
//	GET /healthz      (fleet summary; ?check=1 forces a health round)
//	GET /readyz       (503 while draining or no backend is eligible)
//	GET /metrics      (JSON incl. merged fleet section; Prometheus text under Accept: text/plain)
//	GET /debug/dash   (self-contained fleet dashboard)
//	GET /debug/spans  (retained gateway traces as Chrome trace JSON; ?id=N, ?format=raw)
//	GET /debug/trace  (?id=N: cross-process stitched fleet trace)
//	GET /debug/slo    (fleet-level SLO burn-rate state over merged scrapes)
//
// Every gateway flag is declared, with its shipped default, by
// gateway.Config.RegisterFlags; this command adds only -addr. -slo ""
// turns the fleet SLO engine off, as on shearwarpd.
//
// Usage:
//
//	shearwarpd -addr :8081 & shearwarpd -addr :8082 &
//	shearwarpgw -addr :8080 -backends http://localhost:8081,http://localhost:8082
//	curl 'localhost:8080/render?volume=mri&yaw=45&pitch=20&format=png' > frame.png
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"shearwarp/internal/cli"
	"shearwarp/internal/gateway"
)

func main() {
	var cfg gateway.Config
	cfg.RegisterFlags(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address")
	flag.Parse()

	gw, err := gateway.New(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("shearwarpgw: routing %d backends on %s (attempts %d, hedge q%.2f, breaker %d/%s)\n",
		len(cfg.Backends), *addr, cfg.MaxAttempts, cfg.HedgeQuantile, cfg.BreakerFailures, cfg.BreakerCooldown)
	// The same two-phase drain as the backends, then stop the health loop.
	if err := cli.Serve("shearwarpgw", &http.Server{Addr: *addr, Handler: gw.Handler()}, gw.BeginDrain); err != nil {
		fatal(err)
	}
	gw.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shearwarpgw:", err)
	os.Exit(1)
}
