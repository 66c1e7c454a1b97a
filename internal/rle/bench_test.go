package rle

import (
	"fmt"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

var benchSink *Volume

// BenchmarkEncode is the instrument for the cold path's encoding step: the
// 128^3 MRI phantom along each principal axis, serial and two workers.
// allocs/op must stay a small constant (the result arrays and the workers),
// independent of volume size.
func BenchmarkEncode(b *testing.B) {
	c := classify.Classify(vol.MRIBrain(128), classify.Options{})
	for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/procs=%d", axis, procs), func(b *testing.B) {
				b.SetBytes(int64(len(c.Voxels)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = EncodeParallel(c, axis, procs)
				}
			})
		}
	}
}
