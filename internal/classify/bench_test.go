package classify

import (
	"fmt"
	"testing"

	"shearwarp/internal/vol"
)

var benchSink *Classified

// BenchmarkClassify is the instrument for the cold path's classification
// step: 128^3 under each shipped transfer function, serial and two workers.
func BenchmarkClassify(b *testing.B) {
	const n = 128
	cases := []struct {
		name string
		v    *vol.Volume
		tf   TransferFunc
	}{
		{"mri", vol.MRIBrain(n), MRITransfer},
		{"ct", vol.CTHead(n), CTTransfer},
		{"iso", vol.MRIBrain(n), IsoTransfer(DefaultIsoThreshold)},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(b *testing.B) {
				b.SetBytes(int64(tc.v.VoxelCount()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = ClassifyParallel(tc.v, Options{Transfer: tc.tf}, procs)
				}
			})
		}
	}
}
