//go:build linux && !race

package composite

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The identity tests compare compositeLive with the reference, so a CPUID
// probe that wrongly said "no AVX2" would pass them all by comparing the
// reference with itself. Where the kernel lists avx2 — which Linux does only
// with the YMM state enabled — the assembly kernel must be the one selected.
func TestKernelDispatch(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cpuinfo unreadable: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(b), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	kernel := "compositeLiveRef"
	if useAVX2 {
		kernel = "compositeLiveAVX2"
	}
	t.Logf("cpuinfo lists avx2: %v; compositeLive runs %s", listed, kernel)
	if listed && !useAVX2 {
		t.Fatal("the CPU has AVX2 but the AVX2 kernel was not selected")
	}
}
