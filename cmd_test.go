package shearwarp

// End-to-end smoke tests for the command-line tools, exercised as real
// subprocesses through `go run`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestVolgenAndRenderCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	volPath := filepath.Join(dir, "head.vol")
	out := runCmd(t, "./cmd/volgen", "-kind", "mri", "-size", "24", "-out", volPath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("volgen output: %q", out)
	}
	if st, err := os.Stat(volPath); err != nil || st.Size() < 16 {
		t.Fatalf("volume file missing or empty: %v", err)
	}

	// Resample it up.
	big := filepath.Join(dir, "big.vol")
	runCmd(t, "./cmd/volgen", "-in", volPath, "-resample", "32x32x20", "-out", big)

	// Render the generated volume with each algorithm.
	ppm := filepath.Join(dir, "frame.ppm")
	for _, alg := range []string{"serial", "old", "new", "raycast"} {
		out := runCmd(t, "./cmd/shearwarp", "-in", volPath, "-alg", alg,
			"-procs", "2", "-out", ppm)
		if !strings.Contains(out, "wrote") {
			t.Fatalf("shearwarp %s output: %q", alg, out)
		}
		data, err := os.ReadFile(ppm)
		if err != nil || !bytes.HasPrefix(data, []byte("P6\n")) {
			t.Fatalf("%s did not produce a PPM: %v", alg, err)
		}
	}

	// PNG output path; without -procs the frame gets one worker per core
	// the scheduler uses, and its line says so.
	png := filepath.Join(dir, "frame.png")
	out = runCmd(t, "./cmd/shearwarp", "-in", volPath, "-alg", "new", "-out", png)
	if want := fmt.Sprintf("procs %d ", runtime.GOMAXPROCS(0)); !strings.Contains(out, want) {
		t.Fatalf("default -procs: per-frame line lacks %q:\n%s", want, out)
	}
	data, err := os.ReadFile(png)
	if err != nil || !bytes.HasPrefix(data, []byte("\x89PNG")) {
		t.Fatalf("PNG output wrong: %v", err)
	}
}

func TestShearwarpStatsAndTraceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "phases.json")
	tracePath := filepath.Join(dir, "trace.out")

	// -stats prints a per-worker breakdown table for both parallel
	// algorithms; -statsjson and -trace write their files alongside.
	for _, alg := range []string{"old", "new"} {
		out := runCmd(t, "./cmd/shearwarp", "-kind", "mri", "-size", "24",
			"-alg", alg, "-procs", "2", "-frames", "2",
			"-stats", "-statsjson", jsonPath, "-trace", tracePath)
		for _, want := range []string{"phases-" + alg, "imbal(ms)", "scanlines", "load imbalance"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s -stats output missing %q:\n%s", alg, want, out)
			}
		}

		var doc struct {
			Algorithm string `json:"algorithm"`
			Frames    []struct {
				Workers   int `json:"workers"`
				WallNS    int64
				PerWorker []map[string]any `json:"per_worker"`
			} `json:"frames"`
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s -statsjson invalid JSON: %v\n%s", alg, err, data)
		}
		if doc.Algorithm != alg || len(doc.Frames) != 2 || doc.Frames[0].Workers != 2 ||
			len(doc.Frames[0].PerWorker) != 2 {
			t.Fatalf("%s -statsjson shape wrong: %+v", alg, doc)
		}

		if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
			t.Fatalf("%s -trace wrote no data: %v", alg, err)
		}
	}
}

func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := runCmd(t, "./cmd/experiments", "-list")
	for _, id := range []string{"fig2", "fig22", "abl-barrier", "attr", "rates"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
	out = runCmd(t, "./cmd/experiments", "-fig", "fig10", "-scale", "small")
	if !strings.Contains(out, "Per-scanline profile") {
		t.Fatalf("fig10 output wrong:\n%s", out)
	}
}
