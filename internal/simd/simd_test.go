package simd

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo cross-checks the CPUID probe against the
// kernel's own feature list where Linux exposes one.
func TestProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatal("AVX2 set off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	want := false
	for _, f := range flags {
		if f == "avx2" {
			want = true
		}
	}
	if AVX2 != want {
		t.Fatalf("probe says AVX2=%v, /proc/cpuinfo says %v", AVX2, want)
	}
	if got := Name(); (got == "avx2") != want {
		t.Fatalf("Name() = %q", got)
	}
}
