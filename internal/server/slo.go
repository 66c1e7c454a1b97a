package server

import (
	"time"

	"shearwarp/internal/slo"
)

// SLO wiring: the server feeds the passive engine in internal/slo from
// the counters the endpoints already maintain, so objectives cost the
// request path nothing. Sources:
//
//   - latency objectives read the endpoint's latency histogram — good is
//     the cumulative count at or under the threshold, total the count;
//   - availability objectives read the endpoint's request counters —
//     good is requests minus 5xx responses (client-caused 4xx/499 do
//     not spend the budget).
//
// Sampling is both scrape-driven (every /debug/slo and /metrics read
// ticks the engine, so tests and dashboards see fresh windows) and
// backed by a ticker (Config.SLOInterval) so burn history exists even
// when nothing scrapes during an outage. slo.Build assembles the engine
// from Config.SLO (default slo.DefaultSpec), skipping objectives that
// name endpoints the server does not serve.

// sloSource maps one objective onto the endpoint's live counters, or
// nil when the endpoint (or kind) is unknown.
func (s *Server) sloSource(o slo.Objective) slo.Source {
	m := s.endpointCounters(o.Endpoint)
	if m == nil {
		return nil
	}
	switch o.Kind {
	case slo.Latency:
		h, thr := m.latency, o.ThresholdNS
		return func() (good, total int64) {
			snap := h.Snapshot()
			return snap.CumulativeLE(thr), snap.Count
		}
	case slo.Availability:
		return func() (good, total int64) {
			total = m.requests.Load()
			return total - m.srvErrors.Load(), total
		}
	}
	return nil
}

// sloLoop is the background sampling ticker, stopped by Close.
func (s *Server) sloLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.slo.Tick()
		case <-s.sloStop:
			return
		}
	}
}
