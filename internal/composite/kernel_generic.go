//go:build !amd64 || race

package composite

// compositeLive runs the pixel kernel over the slice's live pieces. Off
// amd64, and under the race detector (which cannot see writes made from
// assembly), it is the Go reference kernel.
func (c *Ctx) compositeLive(vRow int, g *sliceGeom, cnt *Counters) {
	c.compositeLiveRef(vRow, g, cnt)
}
