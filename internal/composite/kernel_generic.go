//go:build !amd64 || race

package composite

// kernelArgs is empty: only the amd64 kernel takes an argument block.
type kernelArgs struct{}

// kernelRow has nothing to set up for the reference kernel.
func (c *Ctx) kernelRow(vRow int) {}

// compositeLive runs the pixel kernel over the slice's live pieces. Off
// amd64, and under the race detector (which cannot see writes made from
// assembly), it is the Go reference kernel.
func (c *Ctx) compositeLive(vRow int, g *sliceGeom, cnt *Counters) {
	c.compositeLiveRef(vRow, g, cnt)
}
