package main

import (
	"sort"
	"sync"
	"time"
)

// The yardstick. This benchmark runs on shared two-core sandboxes whose
// cores speed up and slow down by tens of percent from one second to the
// next (a fixed single-threaded loop on an otherwise idle machine reads
// 1.7 ms, then 2.6 ms, then 3.7 ms). No run length the time cap allows
// averages that out, so the benchmark measures it instead: a fixed piece
// of the benchmark's own arithmetic — never code of the program under
// test, so no change to the program can move it — is timed every few
// tens of milliseconds, interleaved with the measured work. Every timed
// sample is scaled by nominal/measured yardstick time around it, which
// turns wall and CPU times into times at nominal machine speed.

// yardNominal is the yardstick's time on this machine class at full speed.
// It only fixes the scale of the reported times; it is the same constant
// on every commit.
const yardNominal = 420 * time.Microsecond

// yardstick holds one lane of the fixed arithmetic per core in use.
type yardstick struct {
	lanes []yardLane
	wg    sync.WaitGroup
}

type yardLane struct {
	a, b []float32
	took time.Duration
}

func newYardstick(cores int) *yardstick {
	y := &yardstick{lanes: make([]yardLane, cores)}
	for l := range y.lanes {
		a, b := make([]float32, 1<<14), make([]float32, 1<<14)
		for i := range a {
			a[i], b[i] = float32(i), float32(i)*0.5
		}
		y.lanes[l].a, y.lanes[l].b = a, b
	}
	return y
}

// pass is the fixed arithmetic: a float32 blend over two cache-resident
// rows, the shape of the compositing kernel's inner loop. It runs twice
// and keeps the faster time.
func (l *yardLane) pass() {
	l.took = time.Hour
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		a, b := l.a, l.b[:len(l.a)]
		for r := 0; r < 50; r++ {
			for i := range a {
				a[i] = a[i]*0.999 + b[i]*0.001
			}
		}
		l.took = min(l.took, time.Since(t0))
	}
}

// run times the arithmetic on every lane at once and returns the fastest
// time. While a service is under load a lane is often descheduled in
// mid-pass, which says nothing about the machine's speed; the fastest of
// the passes is the one that ran undisturbed.
func (y *yardstick) run() time.Duration {
	for l := 1; l < len(y.lanes); l++ {
		y.wg.Add(1)
		go func(l *yardLane) {
			defer y.wg.Done()
			l.pass()
		}(&y.lanes[l])
	}
	y.lanes[0].pass()
	y.wg.Wait()
	best := y.lanes[0].took
	for l := range y.lanes {
		best = min(best, y.lanes[l].took)
	}
	return best
}

// speedTrack is the yardstick's readings over a measured phase.
type speedTrack struct {
	at []time.Time
	ms []float64
}

func (s *speedTrack) add(at time.Time, d time.Duration) {
	s.at, s.ms = append(s.at, at), append(s.ms, ms(d))
}

// factor returns nominal/measured machine speed around time t: the median
// of the three readings nearest t. Times multiplied by it read as at
// nominal speed. Without readings it is 1.
func (s *speedTrack) factor(t time.Time) float64 {
	n := len(s.at)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return s.at[i].After(t) })
	lo, hi := max(i-2, 0), min(i+1, n)
	if hi-lo < 3 {
		lo, hi = max(hi-3, 0), min(lo+3, n)
	}
	var near [3]float64
	return ms(yardNominal) / median(near[:copy(near[:], s.ms[lo:hi])])
}

// meanFactor is the phase's mean nominal/measured machine speed, for
// quantities summed over the whole phase (wall time, CPU time).
func (s *speedTrack) meanFactor() float64 {
	if len(s.ms) == 0 {
		return 1
	}
	var sum float64
	for _, y := range s.ms {
		sum += ms(yardNominal) / y
	}
	return sum / float64(len(s.ms))
}

// yardPeriod is how often the yardstick is read while a phase runs. A
// reading keeps the cores busy for about a millisecond.
const yardPeriod = 25 * time.Millisecond

// during reads the yardstick every yardPeriod while f runs.
func (y *yardstick) during(f func()) *speedTrack {
	stop, done := make(chan struct{}), make(chan *speedTrack)
	go func() {
		var t speedTrack
		tick := time.NewTicker(yardPeriod)
		defer tick.Stop()
		for {
			t.add(time.Now(), y.run())
			select {
			case <-stop:
				done <- &t
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	return <-done
}

// speedMeter reads the yardstick on demand, for code that measures one
// thing after another rather than a phase.
type speedMeter struct {
	yard  *yardstick
	track speedTrack
}

// now reads the yardstick (when the last reading is yardPeriod old) and
// returns nominal/measured machine speed at this moment.
func (m *speedMeter) now() float64 {
	if n := len(m.track.at); n == 0 || time.Since(m.track.at[n-1]) >= yardPeriod {
		m.track.add(time.Now(), m.yard.run())
	}
	return m.track.factor(time.Now())
}
