// Command loadgen replays zipfian multi-tenant render traffic against a
// running shearwarpd and writes the run's report as JSON (BENCH_load.json
// by convention). It is the stimulus half of the closed observability
// loop: drive load here, watch the SLO engine and /debug/dash react.
//
// Usage:
//
//	shearwarpd -addr :8080 -tenants 12 &
//	loadgen -url http://localhost:8080 -rps 20 -duration 30s -out BENCH_load.json
//
// The volume catalogue is discovered from /healthz unless -volumes
// names an explicit comma-separated, popularity-ranked list. With
// -strict, any 5xx response or transport error makes the exit status
// non-zero (for CI smoke jobs). Every run flag is declared, with its
// shipped default, by loadgen.Config.RegisterFlags; this command adds
// only -out and -strict.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"shearwarp/internal/loadgen"
)

func main() {
	var cfg loadgen.Config
	cfg.RegisterFlags(flag.CommandLine)
	out := flag.String("out", "BENCH_load.json", "report path ('-' = stdout only)")
	strict := flag.Bool("strict", false, "exit non-zero on any 5xx or transport error")
	flag.Parse()

	if cfg.BaseURL == "" && len(cfg.Targets) == 0 {
		cfg.BaseURL = "http://localhost:8080"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	all := cfg.Targets
	if cfg.BaseURL != "" {
		all = append([]string{cfg.BaseURL}, all...)
	}
	roots := strings.Join(all, ", ")
	fmt.Fprintf(os.Stderr, "loadgen: %s for %v at %g rps (zipf %g)\n",
		roots, cfg.Duration, cfg.RPS, cfg.Skew)
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	os.Stdout.Write(buf)

	fmt.Fprintf(os.Stderr, "loadgen: %d requests (%.1f rps achieved), %d shed, %d 5xx, %d transport errors, p99 %.1fms\n",
		rep.Requests, rep.AchievedRPS, rep.Shed, rep.ServerErrors, rep.TransportErrors, rep.Latency.P99MS)
	if rep.RetryAfterSeen > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d Retry-After hints (%d honored, %.1fs waited, %d retries succeeded)\n",
			rep.RetryAfterSeen, rep.RetryAfterHonored, rep.RetryAfterWaitSecs, rep.RetrySuccesses)
	}
	if *strict && (rep.ServerErrors > 0 || rep.TransportErrors > 0) {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL (-strict): server or transport errors observed")
		os.Exit(2)
	}
}
