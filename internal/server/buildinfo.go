package server

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildSnapshot identifies the running binary and its runtime
// configuration — the "which build is misbehaving" half of an incident.
// Static fields are read once from the embedded module build info;
// GOMAXPROCS and Goroutines are live, Procs is the serving Server's.
type BuildSnapshot struct {
	Version    string `json:"version"` // module version, or "devel"
	Commit     string `json:"commit,omitempty"`
	Modified   bool   `json:"modified,omitempty"` // VCS tree was dirty at build
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Procs      int    `json:"procs"` // workers inside each parallel render, as resolved from Config.Procs
	NumCPU     int    `json:"num_cpu"`
	Goroutines int    `json:"goroutines"`
}

var buildOnce = sync.OnceValue(func() BuildSnapshot {
	b := BuildSnapshot{
		Version:   "devel",
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			b.Version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				b.Commit = kv.Value
			case "vcs.modified":
				b.Modified = kv.Value == "true"
			}
		}
	}
	return b
})

// buildSnapshot returns the cached build identity with live runtime
// gauges filled in.
func buildSnapshot() BuildSnapshot {
	b := buildOnce()
	b.GOMAXPROCS = runtime.GOMAXPROCS(0)
	b.Goroutines = runtime.NumGoroutine()
	return b
}
