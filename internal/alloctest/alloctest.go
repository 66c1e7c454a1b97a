// Package alloctest holds the measurement the zero-allocation guards share.
package alloctest

import (
	"runtime"
	"testing"
)

// PerRun is testing.AllocsPerRun for code whose steady state keeps its
// scratch in sync.Pools. A garbage collection during the measurement
// empties those pools, and refilling them shows up as an allocation the
// code under test does not make in steady state; a loaded `go test ./...`
// makes that collection likely. So a nonzero result is measured again, a
// few times, when the collector ran while it was taken. A real per-call
// allocation is reported on every attempt and still fails the guard.
func PerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	var allocs float64
	for attempt := 0; attempt < 5; attempt++ {
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		if allocs == 0 || after.NumGC == before.NumGC {
			break
		}
	}
	return allocs
}
