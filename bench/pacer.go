package main

import "time"

// clock is the run's time source, in nanoseconds since the run began. The
// generator is written against it so the scheduler test can inject a stall.
type clock interface {
	now() int64
	sleepUntil(t int64)
	// waitFor polls cond until it holds or timeout (ns) passes, and
	// reports whether it held.
	waitFor(timeout int64, cond func() bool) bool
}

// spinWindow is how close to a deadline nap is trusted to get; the
// remainder is polled, so an item is handed over within a few microseconds
// of its due time instead of a timer-slack late.
const spinWindow = 150 * time.Microsecond

// realClock waits in one of two ways. With a core of its own (spin) the
// generator polls the clock and never lets go of its P, so it is never late
// for want of a timer or a P, and the program under test keeps exactly the
// other Ps. Sharing the cores it naps and polls only the last spinWindow.
type realClock struct {
	base time.Time
	spin bool
}

func (c realClock) now() int64 { return int64(time.Since(c.base)) }

func (c realClock) sleepUntil(t int64) {
	for now := c.now(); now < t; now = c.now() {
		if d := t - now; !c.spin && d > int64(spinWindow) {
			nap(time.Duration(d) - spinWindow)
		}
	}
}

func (c realClock) waitFor(timeout int64, cond func() bool) bool {
	for start := c.now(); !cond(); {
		if c.now()-start > timeout {
			return false
		}
		if !c.spin {
			nap(20 * time.Microsecond)
		}
	}
	return true
}

const tick = int64(time.Millisecond)

// openLoop offers rate items per second for dur nanoseconds from start, on a
// fixed schedule of 1 ms ticks: the items of tick j are all due at
// start+j*tick+jitter[j] and are handed to emit with that due time no matter
// how late the generator runs. A slow system (or a stalled generator)
// therefore shows up as latency on every item it delayed, never as a lower
// offered rate. late is told how far behind its schedule each tick started.
//
// jitter (seeded, each under a quarter tick, cycled) keeps the arrivals from
// phase-locking with the program's own periodic timers: strictly periodic
// arrivals meet a 200 µs flush ticker at the same offset for a whole run,
// and the run then measures that offset instead of the program.
func openLoop(clk clock, start, dur int64, rate float64, jitter []int64, emit func(due int64, n int), late func(ns int64)) {
	ticks := dur / tick
	perTick := rate * float64(tick) / 1e9
	issued := 0
	for j := int64(0); j < ticks; j++ {
		due := start + j*tick
		if len(jitter) > 0 {
			due += jitter[j%int64(len(jitter))]
		}
		clk.sleepUntil(due)
		late(clk.now() - due)
		upTo := int(perTick * float64(j+1))
		if n := upTo - issued; n > 0 {
			emit(due, n)
			issued = upTo
		}
	}
}

// closedLoop offers as fast as the system admits while keeping at most
// window items between hand-over and delivery, in bursts of at most burst
// items. The item's due time is the instant it is offered.
func closedLoop(clk clock, end int64, window, burst int, inflight func() int, emit func(due int64, n int)) {
	room := func() bool { return window-inflight() >= burst }
	for {
		left := end - clk.now()
		if left <= 0 || !clk.waitFor(left, room) {
			return
		}
		emit(clk.now(), burst)
	}
}
