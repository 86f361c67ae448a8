package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// A run takes runRounds fresh instances of the system through the phases,
// each after warmupSeconds of discarded open-loop traffic at rate_mid. Like
// the rates they are frozen: runs made with other values do not compare.
const (
	runRounds     = 8
	warmupSeconds = 0.4
)

type options struct {
	seconds float64 // measured time over all rounds, split low:mid:sat = 12:5:5
	warmup  float64 // warmupSeconds; the smoke test shortens it
	rounds  int     // runRounds; the smoke test runs one
	seed    int64
	trace   bool
	outDir  string
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	trace     bool
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	verdict   verdict
	correct   bool
	valid     bool
	reasons   []string
	notes     []string
	sutCPUs   int // cores the program under test has to itself; 0 = shares them with the generator
	owners    []ownerTable
	wallS     float64
}

var processStart = time.Now()

// phasePlan splits one round's share of the measured seconds into the run
// shape.
func phasePlan(wl *workload, o options) []phaseSpec {
	sec := func(s float64) int64 {
		d := int64(s * 1e9 / float64(o.rounds))
		return d - d%tick
	}
	// low gets most of the time: its p99 is that of the ticks, not of the
	// messages (a tick's burst is delivered together), and a second holds
	// only a thousand of them.
	low, mid, sat := sec(o.seconds*12/22), sec(o.seconds*5/22), sec(o.seconds*5/22)
	plan := []phaseSpec{
		{name: "warmup", open: true, rate: wl.rateMid, dur: int64(o.warmup*1e9) / tick * tick},
		{name: "low", open: true, rate: wl.rateLow, dur: low, timed: true, traced: o.trace},
		{name: "mid", open: true, rate: wl.rateMid, dur: mid, timed: true, traced: o.trace},
	}
	if o.trace {
		// The traced run saturates twice, stamps off then on: the gap is
		// what tracing costs.
		return append(plan,
			phaseSpec{name: "sat-untraced", dur: sat / 2},
			phaseSpec{name: "sat", dur: sat / 2, timed: true, traced: true})
	}
	return append(plan, phaseSpec{name: "sat", dur: sat})
}

// round is one fresh instance of the system taken through every phase. How
// fast one instance runs depends on accidents of its birth (where the
// runtime put its goroutines and timers, how its rings fell in the cache)
// that last as long as it lives, so one instance measured for longer is no
// steadier, while several measured briefly are. What a run reports of a
// median, a rate or a cost is the trimmed mean over its rounds (the lowest
// and the highest dropped, the rest averaged): averaging smooths an instance
// that is merely in the slower of two modes, trimming discards one that hit
// a host stall. A p99 is the 99th percentile of every message of the phase
// in one instance, and the run reports the median over its rounds: one host
// stall or one garbage collection more puts a round's p99 at several times
// its neighbours', and any mean follows it.
type round struct {
	h       *harness
	setupS  float64
	phases  map[string]*phaseState
	counts  map[string]float64
	verdict verdict
}

func runWorkload(wl *workload, o options) (*result, error) {
	wall0 := time.Now()
	// The generator keeps one thread for the whole run (its CPU clock is
	// what phaseState.programCPUus subtracts) and gets a core of its own (see
	// cpuSplit), where it polls the clock instead of sleeping and so holds
	// one P throughout; the program under test keeps the other cores and Ps.
	var cpus cpuSplit
	sutCPUs, err := cpus.split()
	if err != nil {
		return nil, err
	}
	defer cpus.undo()
	clk := realClock{base: processStart, spin: sutCPUs > 0}
	res := &result{workload: wl.name, seed: o.seed, trace: o.trace, metrics: map[string]float64{}, sutCPUs: sutCPUs}

	var probes probeResult
	if o.trace {
		if probes, err = runProbes(clk, max(1, wl.tenants/2)); err != nil {
			return nil, err
		}
	}

	buf := newBuffers(wl.wire, wl.slots, o.seed)
	busy0, cpu0, t0 := hostBusyUs(), processCPUus(), clk.now()
	var rounds []*round
	for i := 0; i < o.rounds; i++ {
		r, err := runRound(wl, o, clk, buf, o.seed+int64(i))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		// Collect the instance just torn down now, between rounds, so that
		// peak memory is one instance's and not a matter of when the
		// collector happened to run.
		runtime.GC()
	}
	elapsedUs := float64(clk.now()-t0) / 1e3
	neighbourUs := float64(hostBusyUs()-busy0) - float64(processCPUus()-cpu0)

	// Verification.
	replays, deduped := 0.0, 0.0
	for i, r := range rounds {
		res.verdict.add(r.verdict)
		res.attempted += r.h.issued
		res.failed += uint64(r.counts["cluster.stray_at_a"])
		replays += r.counts["cluster.replays_sent"]
		deduped += r.counts["cluster.recv_deduped"]
		if r.h.slotSteals > 0 {
			res.notes = append(res.notes, fmt.Sprintf("round %d: slot_steals=%d", i, r.h.slotSteals))
		}
		for _, spec := range phasePlan(wl, o) {
			if p := r.phases[spec.name]; p != nil && (p.refused > 0 || p.deliveredN() != p.sent) {
				res.notes = append(res.notes, fmt.Sprintf("round %d %s: %.2f s, offered %d, delivered %d, refused %d, in-flight max %d",
					i, spec.name, float64(p.end-p.start)/1e9, p.sent, p.deliveredN(), p.refused, p.inflightMax))
			}
		}
	}
	res.failed += res.verdict.failed()
	if replays != deduped {
		// A replay that was delivered shows up as a duplicate above; one
		// that B's window never counted is a failure of its own.
		res.failed += uint64(math.Abs(replays - deduped))
		res.notes = append(res.notes, fmt.Sprintf("replays sent %v != recv_deduped %v", replays, deduped))
	}
	res.correct = res.failed == 0

	// est is the run's estimate of a per-phase quantity, its trimmed mean
	// over the rounds; tailEst, for the 99th percentiles, is the median.
	perRound := func(phase string, f func(p *phaseState) float64) (v []float64) {
		for _, r := range rounds {
			v = append(v, f(r.phases[phase]))
		}
		return v
	}
	est := func(phase string, f func(p *phaseState) float64) float64 { return trimmedMean(perRound(phase, f)) }
	tailEst := func(phase string, f func(p *phaseState) float64) float64 { return median(perRound(phase, f)) }
	us := func(ns float64) float64 { return ns / 1e3 }
	perMsg := func(p *phaseState) float64 { return float64(p.programCPUus()) / math.Max(1, float64(p.deliveredN())) }
	rate := func(p *phaseState) float64 { return float64(p.deliveredN()) / (float64(p.end-p.start) / 1e9) }
	lat := func(q float64) func(p *phaseState) float64 {
		return func(p *phaseState) float64 { return us(p.lat.total().quantile(q)) }
	}
	lateP99 := func(p *phaseState) float64 {
		s := new(snapshot)
		s.merge(&p.late)
		return us(s.quantile(0.99))
	}
	m := res.metrics
	if !o.trace {
		var setups []float64
		for _, r := range rounds {
			setups = append(setups, r.setupS)
		}
		m["setup_s"] = median(setups)
		m["lat_low_p50_us"] = est("low", lat(0.5))
		m["lat_low_p99_us"] = tailEst("low", lat(0.99))
		m["lat_mid_p50_us"] = est("mid", lat(0.5))
		m["sat_items_per_s"] = est("sat", rate)
		m["cpu_us_per_msg_low"] = est("low", perMsg)
		m["cpu_us_per_msg_sat"] = est("sat", perMsg)
		m["rss_peak_mb"] = rssPeakMiB()
	} else {
		layerMetrics(wl, m, probes, rounds)
		tail := func(p *phaseState) float64 { return us(p.lat.total().tailQuantile()) }
		m["lat_low_p999_us"] = tailEst("low", tail)
		m["lat_mid_p999_us"] = tailEst("mid", tail)
		m["trace.overhead_pct"] = 100 * (1 - est("sat", rate)/est("sat-untraced", rate))
		for _, name := range []string{"low", "mid"} {
			res.owners = append(res.owners, ownership(wl, name, rounds))
		}
		first := rounds[0]
		if err := first.h.writeSpans(o.outDir, []*phaseState{first.phases["low"], first.phases["mid"], first.phases["sat"]}); err != nil {
			return nil, err
		}
	}
	for i, r := range rounds {
		res.notes = append(res.notes, fmt.Sprintf("round %d: low p50 %.1f p99 %.1f us, mid p50 %.1f p99 %.1f us, sat %.0f /s, cpu low %.3f sat %.3f us/msg, set-up %.4f s",
			i, lat(0.5)(r.phases["low"]), lat(0.99)(r.phases["low"]), lat(0.5)(r.phases["mid"]), lat(0.99)(r.phases["mid"]),
			rate(r.phases["sat"]), perMsg(r.phases["low"]), perMsg(r.phases["sat"]), r.setupS))
	}
	m["lat_mid_p99_us"] = tailEst("mid", lat(0.99))
	m["gen.late_low_p99_us"] = tailEst("low", lateP99)
	m["gen.late_mid_p99_us"] = tailEst("mid", lateP99)

	// Validity: reasons not to believe this run, as opposed to reasons the
	// program under test is wrong.
	invalid := func(format string, a ...any) { res.reasons = append(res.reasons, fmt.Sprintf(format, a...)) }
	if !hostSupported {
		invalid("not Linux: no CPU, memory or neighbour accounting")
	}
	if sutCPUs == 0 || runtime.GOMAXPROCS(0) < 2 {
		invalid("fewer than 2 CPUs or GOMAXPROCS < 2: generator and program share a core")
	}
	for _, name := range []string{"low", "mid"} {
		if l := m["gen.late_"+name+"_p99_us"]; l > lateLimitUs {
			invalid("generator late in %s: p99 %.0f us > %d us", name, l, lateLimitUs)
		}
	}
	for i, r := range rounds {
		p := r.phases["mid"]
		if p.headN > 0 && p.tailN > 0 {
			head, tail := p.inflightHead/float64(p.headN), p.inflightTail/float64(p.tailN)
			// Growth means more than double plus five ticks' worth of items.
			if tail > 2*head+wl.rateMid*5e-3 {
				invalid("round %d: backlog growing through mid: %.0f -> %.0f in flight", i, head, tail)
			}
		}
	}
	if p99 := m["lat_mid_p99_us"]; p99 > wl.midP99Us {
		invalid("rate_mid not sustained: p99 %.0f us > %.0f us", p99, wl.midP99Us)
	}
	if res.failed > 0 {
		invalid("ops_failed=%d", res.failed)
	}
	if share := neighbourUs / elapsedUs; share > 0.20 {
		invalid("other processes used %.0f %% of a core", 100*share)
	}
	res.valid = len(res.reasons) == 0
	res.wallS = time.Since(wall0).Seconds()
	return res, nil
}

// runRound sets the system up (build it, peer and dial whatever it needs,
// get the first message through: that is the set-up time), takes it through
// the phases and tears it down.
func runRound(wl *workload, o options, clk clock, buf *buffers, seed int64) (*round, error) {
	h := newHarness(wl, clk, buf, seed)
	r := &round{h: h, phases: map[string]*phaseState{}}
	t0 := clk.now()
	sys, err := wl.build(h)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	h.sys = sys
	if err := h.handshake(); err != nil {
		return nil, err
	}
	r.setupS = float64(clk.now()-t0) / 1e9
	if o.trace {
		defer h.sampleBacklog(sys)()
	}
	for _, spec := range phasePlan(wl, o) {
		if spec.dur >= tick {
			r.phases[spec.name] = h.runPhase(spec)
		}
	}
	r.counts = sys.counters()
	r.verdict = h.chk.finish(h.seqs)
	h.sys = nil // the round's numbers are kept, the system is not
	return r, nil
}

// sampleBacklog polls the plane's own backlog gauge every 10 ms for the
// traced run's plane.backlog_max; the returned func stops the poller.
func (h *harness) sampleBacklog(sys system) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				b, p := int64(sys.backlog()), h.cur.Load()
				if b > p.backlogMax.Load() {
					p.backlogMax.Store(b)
				}
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// layerMetrics fills the per-layer metrics of a traced run, pooled over its
// rounds. Timings are those of phase low (the notification regime) unless
// the name says otherwise; ratios of counters are deltas over phase sat;
// plain counts cover the whole run.
func layerMetrics(wl *workload, m map[string]float64, pr probeResult, rounds []*round) {
	for _, d := range perLayer {
		m[d.Name] = na
	}
	q := func(phase string, layer int, quant float64) float64 {
		s := new(snapshot)
		for _, r := range rounds {
			p := r.phases[phase]
			p.layers[layer].mergeInto(s)
		}
		return s.quantile(quant)
	}
	// sum adds f over every round's phase.
	sum := func(phase string, f func(p *phaseState) float64) (t float64) {
		for _, r := range rounds {
			t += f(r.phases[phase])
		}
		return t
	}
	delta := func(name string) float64 {
		return sum("sat", func(p *phaseState) float64 { return p.cnt1[name] - p.cnt0[name] })
	}
	ratio := func(num, den string) float64 {
		if d := delta(den); d > 0 {
			return delta(num) / d
		}
		return na
	}
	count := func(names ...string) {
		for _, name := range names {
			m[name] = 0
			for _, r := range rounds {
				m[name] += r.counts[name]
			}
		}
	}
	delivered := func(p *phaseState) float64 { return float64(p.deliveredN()) }

	m["notifier.notify_ns"], m["notifier.select_ns"], m["notifier.wake_ns"] = pr.notifyNs, pr.selectNs, pr.wakeNs
	m["queue.push1_ns"], m["queue.pop1_ns"], m["queue.batch32_ns_per_item"] = pr.push1Ns, pr.pop1Ns, pr.batch32Ns

	m["plane.handler_ns_p50"] = q("low", lhSeg0+3, 0.5)
	m["plane.backlog_max"], m["rt.goroutines_max"] = 0, 0
	for _, r := range rounds {
		m["plane.backlog_max"] = math.Max(m["plane.backlog_max"], float64(r.phases["mid"].backlogMax.Load()))
		for _, p := range r.phases {
			m["rt.goroutines_max"] = math.Max(m["rt.goroutines_max"], float64(p.goroutineMax))
		}
	}
	count("plane.dropped", "plane.errors", "plane.panics")
	switch wl.kind {
	case kindPlane:
		m["plane.ingress_call_ns_per_item"] = sum("sat", func(p *phaseState) float64 { return float64(p.ingressNs) }) /
			math.Max(1, sum("sat", func(p *phaseState) float64 { return float64(p.ingress) }))
		m["plane.notify_wait_ns_p50"], m["plane.notify_wait_ns_p99"] = q("low", lhSeg0+2, 0.5), q("low", lhSeg0+2, 0.99)
		m["plane.deliver_ns_p50"], m["plane.deliver_ns_p99"] = q("low", lhSeg0+4, 0.5), q("low", lhSeg0+4, 0.99)
		m["plane.refused"] = 0
		for _, r := range rounds {
			m["plane.refused"] += float64(r.h.refused)
		}
		if calls := sum("sat", func(p *phaseState) float64 { return float64(p.batchCalls.Load()) }); calls > 0 {
			m["plane.batch_items_mean"] = sum("sat", func(p *phaseState) float64 { return float64(p.batchItems.Load()) }) / calls
		}
	case kindEdge:
		m["edge.post_rtt_ns_p50"], m["edge.post_rtt_ns_p99"] = q("low", lhPostRTT, 0.5), q("low", lhPostRTT, 0.99)
		m["edge.servehttp_ns_p50"] = q("low", lhServe, 0.5)
		m["edge.stage_wait_ns_p50"], m["edge.stage_wait_ns_p99"] = q("low", lhSeg0+2, 0.5), q("low", lhSeg0+2, 0.99)
		m["edge.egress_ns_p50"], m["edge.egress_ns_p99"] = q("low", lhSeg0+4, 0.5), q("low", lhSeg0+4, 0.99)
		m["edge.items_per_flush"] = ratio("edge.flushed_items", "edge.flushes")
		m["edge.frames_per_write"] = ratio("edge.fanout_msgs", "edge.coalesced_writes")
		m["edge.sent_bytes_per_msg"] = ratio("edge.sent_bytes", "edge.fanout_msgs")
		count("edge.rejected", "edge.rate_limited", "edge.slab_overflow", "edge.sub_dropped", "edge.non_202")
		m["edge.rejected"] += m["edge.non_202"]
		delete(m, "edge.non_202")
	case kindFed:
		m["cluster.ingress_call_ns_p50"] = q("low", lhSeg0+1, 0.5)
		m["cluster.bridge_wait_ns_p50"], m["cluster.bridge_wait_ns_p99"] = q("low", lhSeg0+2, 0.5), q("low", lhSeg0+2, 0.99)
		m["plane.deliver_ns_p50"], m["plane.deliver_ns_p99"] = q("low", lhSeg0+4, 0.5), q("low", lhSeg0+4, 0.99)
		m["cluster.items_per_frame"] = ratio("cluster.forwarded", "cluster.forward_batches")
		m["cluster.wire_bytes_per_item"] = ratio("cluster.forward_bytes", "cluster.forwarded")
		count("cluster.recv_deduped", "cluster.forward_dropped", "cluster.recv_rejected", "cluster.frame_errors", "cluster.reconnects")
	}

	m["rt.alloc_b_per_msg"] = sum("sat", func(p *phaseState) float64 { return float64(p.alloc1 - p.alloc0) }) / math.Max(1, sum("sat", delivered))
	first, last := rounds[0], rounds[len(rounds)-1]
	m["rt.gc_cycles"] = float64(last.phases["sat"].gc1 - first.phases["low"].gc0)
}

// ownerTable says which layer owns a phase's median and its tail: the share
// of each consecutive segment of a message's life in the median message and
// in the slowest 1 % of messages, from the phase's records.
type ownerTable struct {
	phase    string
	n        int
	p50, p99 float64 // of the recorded messages' total, µs
	rows     []ownerRow
}

type ownerRow struct {
	name               string
	p50Us              float64 // median of the segment
	p50Share, p99Share float64
}

func ownership(wl *workload, phase string, rounds []*round) ownerTable {
	var recs []rec
	for _, r := range rounds {
		p := r.phases[phase]
		recs = append(recs, p.recs[:min(int(p.recN.Load()), len(p.recs))]...)
	}
	n := len(recs)
	t := ownerTable{phase: phase, n: n}
	if n == 0 {
		return t
	}
	total := func(r *rec) (s int64) {
		for _, v := range r.seg {
			s += v
		}
		return s
	}
	totals := make([]float64, n)
	for i := range recs {
		totals[i] = float64(total(&recs[i]))
	}
	sorted := append([]float64(nil), totals...)
	sort.Float64s(sorted)
	t.p50, t.p99 = sorted[n/2]/1e3, sorted[n*99/100]/1e3
	cut := sorted[n*99/100]

	var medSum, tailSum float64
	meds, tails := make([]float64, nSeg), make([]float64, nSeg)
	col := make([]float64, n)
	for s := 0; s < nSeg; s++ {
		for i := range recs {
			col[i] = float64(recs[i].seg[s])
			if totals[i] >= cut {
				tails[s] += col[i]
			}
		}
		meds[s] = median(col)
		medSum += meds[s]
		tailSum += tails[s]
	}
	names := segNames[wl.kind]
	for s := 0; s < nSeg; s++ {
		t.rows = append(t.rows, ownerRow{names[s], meds[s] / 1e3, meds[s] / math.Max(1, medSum), tails[s] / math.Max(1, tailSum)})
	}
	return t
}
