package main

import (
	"testing"
	"time"
)

// stubSys stands in for the program under test: it keeps a copy of every
// payload handed to it, or hands it straight back.
type stubSys struct {
	h    *harness
	echo bool
	got  []outMsg
}

func (s *stubSys) submit(b []outMsg, _ bool) int {
	for _, m := range b {
		if s.echo {
			s.h.deliver(m.tenant, m.p)
			continue
		}
		s.got = append(s.got, outMsg{tenant: m.tenant, id: m.id, p: append([]byte(nil), m.p...)})
	}
	return 0
}
func (s *stubSys) counters() map[string]float64 { return nil }
func (s *stubSys) backlog() int                 { return 0 }
func (s *stubSys) stop()                        {}

// fakeClock advances only when the generator sleeps; one sleep can be made
// to overrun by a fixed stall.
type fakeClock struct {
	t              int64
	stallAt, stall int64
}

func (c *fakeClock) now() int64 { return c.t }
func (c *fakeClock) sleepUntil(t int64) {
	if t > c.t {
		c.t = t
	}
	if c.stall > 0 && c.t >= c.stallAt {
		c.t += c.stall
		c.stall = 0
	}
}

func (c *fakeClock) waitFor(_ int64, cond func() bool) bool { return cond() }

func testHarness(clk clock, echo bool) (*harness, *stubSys) {
	wl := &workload{name: "test", kind: kindPlane, tenants: 2, wire: wire{size: 64, trailer: 4},
		slots: 64, window: 16, burst: 4, draw: drawRoundRobin}
	h := newHarness(wl, clk, newBuffers(wl.wire, wl.slots, 1), 1)
	s := &stubSys{h: h, echo: echo}
	h.sys = s
	return h, s
}

// TestCheckerCountsEveryFault feeds the receiving end synthetic delivery
// streams with exactly one fault each and expects exactly one failed
// operation of the right class.
func TestCheckerCountsEveryFault(t *testing.T) {
	const n = 20
	faults := []struct {
		name   string
		mangle func(got []outMsg) []outMsg
		want   verdict
	}{
		{"clean", func(g []outMsg) []outMsg { return g }, verdict{}},
		{"dropped", func(g []outMsg) []outMsg { return append(g[:7:7], g[8:]...) }, verdict{Lost: 1}},
		{"dropped last", func(g []outMsg) []outMsg { return g[:n-1] }, verdict{Lost: 1}},
		{"duplicated", func(g []outMsg) []outMsg { return append(g, g[5]) }, verdict{Duplicated: 1}},
		{"reordered", func(g []outMsg) []outMsg { g[6], g[8] = g[8], g[6]; return g }, verdict{Reordered: 1}}, // same tenant: round-robin over 2
		{"corrupted", func(g []outMsg) []outMsg { g[9].p[40] ^= 0x10; return g }, verdict{Corrupt: 1}},
		{"wrong tenant", func(g []outMsg) []outMsg { g[9].tenant ^= 1; return g }, verdict{Corrupt: 1}},
		{"truncated", func(g []outMsg) []outMsg { g[3].p = g[3].p[:60]; return g }, verdict{Corrupt: 1}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			h, s := testHarness(&fakeClock{}, false)
			h.emit(0, n)
			for i := range s.got {
				crcTrailer(s.got[i].p) // the handler's part
			}
			for _, m := range f.mangle(s.got) {
				h.deliver(m.tenant, m.p)
			}
			got := h.chk.finish(h.seqs)
			if got != f.want {
				t.Fatalf("verdict %+v, want %+v", got, f.want)
			}
			if wantFailed := f.want.failed(); got.failed() != wantFailed {
				t.Fatalf("ops_failed %d, want %d", got.failed(), wantFailed)
			}
		})
	}
}

// TestHandlerOutputIsVerified: a payload the handler never processed (its
// trailer is still zero) must not pass.
func TestHandlerOutputIsVerified(t *testing.T) {
	h, s := testHarness(&fakeClock{}, false)
	h.emit(0, 1)
	h.deliver(s.got[0].tenant, s.got[0].p)
	if got := h.chk.finish(h.seqs); got.Corrupt != 1 {
		t.Fatalf("unprocessed payload accepted: %+v", got)
	}
}

// TestOpenLoopTimesFromDue injects a 5 ms generator stall into an open-loop
// phase whose system answers instantly. No item may be skipped, and the
// items that were due during the stall must carry it as latency: timed from
// when they were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 5 * int64(time.Millisecond)
	clk := &fakeClock{stallAt: 10 * tick, stall: stall}
	h, _ := testHarness(clk, true)
	// The echo stub skips the handler, so verify without its trailer.
	h.w.trailer = 0
	var lat []int64
	p := h.enter(phaseSpec{name: "low", open: true, rate: 1000, dur: 20 * tick, timed: true})
	openLoop(clk, p.start, p.spec.dur, p.spec.rate, nil, func(due int64, n int) {
		h.emit(due, n)
		lat = append(lat, clk.now()-due)
	}, func(int64) {})
	h.leave(p)

	if len(lat) != 20 || p.deliveredN() != 20 {
		t.Fatalf("offered %d delivered %d items, want 20: the stall lowered the rate", len(lat), p.deliveredN())
	}
	// Tick 10 slept into the stall; ticks 11-14 were already overdue when
	// the generator came back.
	want := map[int]int64{9: 0, 10: stall, 11: stall - tick, 12: stall - 2*tick, 14: stall - 4*tick, 15: 0}
	for i, w := range want {
		if lat[i] != w {
			t.Errorf("item due at tick %d: latency %d ns, want %d ns", i, lat[i], w)
		}
	}
	// And the harness's own record agrees: five items at 1 ms or more.
	snap := p.lat.total()
	var slow uint64
	for b := bucketOf(int64(time.Millisecond)); b < nBuckets; b++ {
		slow += snap.counts[b]
	}
	if slow != 5 {
		t.Errorf("histogram holds %d items at >= 1 ms, want 5", slow)
	}
	if v := h.chk.finish(h.seqs); v.failed() != 0 {
		t.Errorf("verdict %+v", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	s := new(snapshot)
	s.merge(&h)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := s.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 - 1} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d not inside its bucket [%v,%v)", v, lo, hi)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, med, q3)
	}
}
