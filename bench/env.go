package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// env is the stamp every output carries, and the load discipline derived
// from it: W is both the renderer worker count of the library workloads
// and the number of client goroutines and connections of the service
// workloads — never more.
type env struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	W            int     `json:"w"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	SliceSeconds float64 `json:"slice_seconds"`
}

func newEnv(seed int64, seconds float64) (env, error) {
	e := env{
		Commit:       "unknown",
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         seed,
		Seconds:      seconds,
		SliceSeconds: seconds / slices,
	}
	if e.GOMAXPROCS > e.NProc {
		return e, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: the load generator would compete with the program under test", e.GOMAXPROCS, e.NProc)
	}
	e.W = min(e.GOMAXPROCS, 4)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e, nil
}

func (e env) String() string {
	return fmt.Sprintf("commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d W=%d seed=%d seconds=%g slice=%gs",
		e.Commit, e.GoVersion, e.CPUModel, e.NProc, e.GOMAXPROCS, e.W, e.Seed, e.Seconds, e.SliceSeconds)
}

// cpuModel reads the host CPU name; hosts without /proc/cpuinfo read
// "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
