//go:build race

package alloctest

// Race reports whether the race detector is on. Under it sync.Pool drops
// a quarter of what is Put, so pooled code cannot measure 0 allocs/op.
const Race = true
