//go:build !unix

package main

import "time"

// Without getrusage the CPU and RSS metrics read 0; the benchmark is only
// gated on unix hosts.
func cpuTime() time.Duration { return 0 }

func peakRSSMiB() float64 { return 0 }
