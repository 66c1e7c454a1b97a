//go:build !amd64 || race

package warp

// warpRow warps one row span's output pixels. Off amd64, and under the race
// detector (which cannot see writes made from assembly), it is the Go
// reference loop.
func (c *Ctx) warpRow(outRow []uint8, u, v float64) (pixels, background int64) {
	return c.warpRowRef(outRow, u, v)
}
