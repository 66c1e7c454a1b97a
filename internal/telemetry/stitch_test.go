package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// stitchFixture builds a three-row stitched trace: the gateway's own
// trace, a winner backend shifted by a positive clock offset, and a
// cancelled loser row whose span set could not be fetched.
func stitchFixture() (uint64, []StitchedRow) {
	const id = uint64(42)
	gw := &Trace{ID: id, Label: "gw render mri|||", StartNS: 0, DurNS: 5_000_000, Status: 200, Spans: []Span{
		{Name: "pick", Cat: CatRequest, Worker: -1, StartNS: 0, DurNS: 10_000},
		{Name: "attempt 0 http://a", Cat: CatBusy, Worker: 0, StartNS: 20_000, DurNS: 4_900_000},
	}}
	winner := &Trace{ID: id, Attempt: 0, Label: "render yaw=30", StartNS: 9_000_000, DurNS: 4_000_000, Status: 200, Spans: []Span{
		{Name: "composite-own", Cat: CatBusy, Worker: 0, StartNS: 9_100_000, DurNS: 3_000_000},
	}}
	rows := []StitchedRow{
		{Label: "gateway", Trace: gw},
		{Label: "backend http://a attempt 0", Trace: winner, OffsetNS: -8_500_000},
		{Label: "backend http://b attempt 1 (canceled)", Canceled: true, Err: "fetching spans: connection refused"},
	}
	return id, rows
}

// TestWriteStitchedChromeTrace is the golden shape test for the
// cross-process stitcher's output: the same decode the CI smoke job and
// the chaos suite run, pinning pids as row ordinals, clock-shifted
// timestamps, metadata for fetchless rows (marked, not dropped), and
// the stitch summary key.
func TestWriteStitchedChromeTrace(t *testing.T) {
	id, rows := stitchFixture()
	var b strings.Builder
	if err := WriteStitchedChromeTrace(&b, id, rows); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  uint64         `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
		Stitch          struct {
			ID   uint64 `json:"id"`
			Rows []struct {
				Label    string `json:"label"`
				OffsetNS int64  `json:"offset_ns"`
				Spans    int    `json:"spans"`
				Canceled bool   `json:"canceled"`
				Err      string `json:"err"`
			} `json:"rows"`
		} `json:"stitch"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v\n%s", err, b.String())
	}
	if got.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", got.DisplayTimeUnit)
	}
	if got.Stitch.ID != id || len(got.Stitch.Rows) != len(rows) {
		t.Fatalf("stitch summary id=%d rows=%d, want id=%d rows=%d",
			got.Stitch.ID, len(got.Stitch.Rows), id, len(rows))
	}
	if r := got.Stitch.Rows[2]; !r.Canceled || r.Err == "" || r.Spans != 0 {
		t.Fatalf("cancelled fetchless row summary = %+v, want canceled with err and 0 spans", r)
	}

	// Every row — including the one with no span data — must emit its
	// process_name metadata so the attempt is visible, and pids are row
	// ordinals (all rows share the fleet ID, so the ID cannot be the pid).
	names := map[uint64]string{}
	var xByPID = map[uint64]int{}
	for _, ev := range got.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				names[ev.PID], _ = ev.Args["name"].(string)
				if tid, ok := ev.Args["trace_id"].(float64); !ok || uint64(tid) != id {
					t.Fatalf("pid %d process_name args %v missing trace_id %d", ev.PID, ev.Args, id)
				}
			}
		case "X":
			xByPID[ev.PID]++
			// The winner backend's spans are shifted onto the gateway
			// timeline: 9_100_000ns - 8_500_000ns = 600µs.
			if ev.PID == 2 && ev.Name == "composite-own" && ev.TS != 600 {
				t.Fatalf("aligned backend span ts = %.1fµs, want 600", ev.TS)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for pid := uint64(1); pid <= 3; pid++ {
		if names[pid] == "" {
			t.Fatalf("pid %d has no process_name (names %v) — a row was dropped", pid, names)
		}
	}
	if !strings.Contains(names[3], "canceled") {
		t.Fatalf("cancelled row name %q not marked", names[3])
	}
	if xByPID[1] != 2 || xByPID[2] != 1 || xByPID[3] != 0 {
		t.Fatalf("span events per pid = %v, want 2/1/0", xByPID)
	}
}

// TestFindAllSharedID pins the multi-attempt retention contract: one
// backend serving several attempts of a fleet request retains one trace
// per attempt under the shared ID, and findAll returns them in attempt
// order even when retention order differs.
func TestFindAllSharedID(t *testing.T) {
	tr := NewTracer(16, 0, 0)
	tr.Add(&Trace{ID: 9, Attempt: 2, StartNS: 300})
	tr.Add(&Trace{ID: 9, Attempt: 0, StartNS: 100})
	tr.Add(&Trace{ID: 5, Attempt: 0, StartNS: 50})
	tr.Add(&Trace{ID: 9, Attempt: 1, StartNS: 200})
	got := tr.findAll(9)
	if len(got) != 3 {
		t.Fatalf("findAll returned %d traces, want 3", len(got))
	}
	for i, want := range []int{0, 1, 2} {
		if got[i].Attempt != want {
			t.Fatalf("findAll[%d].Attempt = %d, want %d", i, got[i].Attempt, want)
		}
	}
}
