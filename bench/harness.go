package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// system is a workload's program under test, reached only through public
// entry points of the layer it exercises.
type system interface {
	// submit hands a burst to the entry point and returns how many the
	// entry point refused synchronously (0 for the asynchronous HTTP
	// workload, whose refusals arrive as responses). With traced set it
	// stamps stSend/stAdmit around the calls.
	submit(b []outMsg, traced bool) (refused int)
	// counters snapshots the layer's own monotonic counters by metric name.
	counters() map[string]float64
	// backlog is the plane's current device-side queue occupancy.
	backlog() int
	stop()
}

type outMsg struct {
	tenant int
	id     uint64
	p      []byte
}

type phaseSpec struct {
	name   string
	open   bool    // open loop at rate; otherwise closed loop
	rate   float64 // items/s (open loop)
	dur    int64   // ns
	timed  bool    // read the clock on every delivery (latency is reported)
	traced bool    // stamp every message at each layer boundary
}

const cntStripes = 8

type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// Segments of one message's life, in order; b0..b5 are due, send, admitted
// (plane, federation) or ServeHTTP returned (edge), handler start, handler
// end, delivered. Their names per workload kind are in segNames.
const nSeg = 5

type rec struct {
	id  uint64
	due int64
	seg [nSeg]int64
}

// Full-population layer histograms of a traced phase.
const (
	lhSeg0     = 0 // .. nSeg-1: the five segments
	lhPostRTT  = nSeg
	lhServe    = nSeg + 1
	nLayerHist = nSeg + 2
)

type phaseState struct {
	spec       phaseSpec
	start, end int64
	lat        *stripedHist // due to delivered, every message (timed phases)
	late       hist         // generator lateness per tick
	sent       uint64
	delivered  [cntStripes]paddedCounter

	// Generator-side accounting (single goroutine).
	refused            uint64
	inflightMax        int
	inflightHead       float64 // mean in-flight over the first quarter of the ticks
	inflightTail       float64 // ... and the last quarter
	headN, tailN       int
	ingressNs, ingress int64 // traced: time inside the entry call, and its items

	// Traced phases only.
	layers     *[nLayerHist]stripedHist
	recs       []rec
	recN       atomic.Int64
	stride     uint64
	batchCalls atomic.Int64
	batchItems atomic.Int64
	backlogMax atomic.Int64

	// Boundary snapshots.
	cpu0, cpu1   int64 // processCPUus at the phase's ends
	gen0, gen1   int64 // threadCPUus of the generator at the phase's ends
	submitCPUus  int64 // generator CPU spent inside the entry calls
	alloc0, gc0  uint64
	alloc1, gc1  uint64
	cnt0, cnt1   map[string]float64 // the system's own counters
	goroutineMax int
}

// programCPUus is the phase's CPU time of the program under test: the
// process's, less what the generator's thread spent outside the entry calls
// (pacing, building messages, waiting for the window). The entry calls run
// on the generator's thread and are the program's work, so they stay in.
func (p *phaseState) programCPUus() int64 {
	return (p.cpu1 - p.cpu0) - (p.gen1 - p.gen0 - p.submitCPUus)
}

func (p *phaseState) deliveredN() uint64 {
	var n uint64
	for i := range p.delivered {
		n += p.delivered[i].n.Load()
	}
	return n
}

// buffers are the generator's recycled payload buffers and per-message
// slots, allocated once per process and reused by every set-up.
type buffers struct {
	slots []slot
	bufs  [][]byte
}

func newBuffers(w wire, n int, seed int64) *buffers {
	b := &buffers{slots: make([]slot, n), bufs: make([][]byte, n)}
	backing := make([]byte, n*w.size)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.bufs {
		b.bufs[i] = backing[i*w.size : (i+1)*w.size : (i+1)*w.size]
		w.fillBody(b.bufs[i], rng)
	}
	return b
}

// harness is one run's generator, receiver and verifier around a system.
type harness struct {
	wl    *workload
	clk   clock
	w     wire
	buf   *buffers
	mask  uint64
	chk   *checker
	sys   system
	cur   atomic.Pointer[phaseState]
	batch []outMsg

	// Generator state (single goroutine).
	nextID     uint64 // ids are unique, not dense: acquire may pass over some
	issued     uint64 // messages handed to the system: ops attempted
	sent       uint64 // issued, minus what leave wrote off as lost
	seqs       []uint64
	draws      []uint16 // seeded tenant draws, cycled
	drawPos    int
	jitter     []int64 // seeded per-tick offsets of the open-loop schedule
	refused    uint64
	slotSteals uint64
	seed       int64

	deliveredBefore uint64 // deliveries booked to phases already left
}

func newHarness(wl *workload, clk clock, buf *buffers, seed int64) *harness {
	h := &harness{
		wl:   wl,
		clk:  clk,
		w:    wl.wire,
		buf:  buf,
		mask: uint64(len(buf.slots) - 1),
		chk:  newChecker(wl.tenants),
		seqs: make([]uint64, wl.tenants),
		seed: seed,
	}
	for i := range buf.slots {
		buf.slots[i].busy.Store(0)
	}
	rng := rand.New(rand.NewSource(seed))
	if wl.draw != nil {
		h.draws = wl.draw(rng, wl.tenants)
	}
	h.jitter = make([]int64, 4093) // prime: never in step with a tenant cycle
	for i := range h.jitter {
		h.jitter[i] = rng.Int63n(tick / 4)
	}
	h.enter(phaseSpec{name: "setup", dur: int64(time.Second)})
	return h
}

func (h *harness) slot(id uint64) *slot { return &h.buf.slots[id&h.mask] }

// inflight is how many issued messages have not been seen delivered.
func (h *harness) inflight() int {
	return int(int64(h.sent) - int64(h.deliveredBefore+h.cur.Load().deliveredN()))
}

// enter starts a phase: from here on deliveries are booked to it.
func (h *harness) enter(spec phaseSpec) *phaseState {
	now := h.clk.now()
	p := &phaseState{spec: spec, start: now}
	if spec.timed {
		p.lat = new(stripedHist)
	}
	if spec.traced {
		p.layers = new([nLayerHist]stripedHist)
		p.recs = make([]rec, maxRecs)
		expect := spec.rate * float64(spec.dur) / 1e9
		if !spec.open {
			expect = h.wl.satGuess * float64(spec.dur) / 1e9
		}
		p.stride = uint64(expect/maxRecs) + 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0, p.gc0 = ms.TotalAlloc, uint64(ms.NumGC)
	p.cpu0, p.gen0 = processCPUus(), threadCPUus()
	if h.sys != nil {
		p.cnt0 = h.sys.counters()
	}
	if old := h.cur.Load(); old != nil {
		h.deliveredBefore += old.deliveredN()
	}
	h.cur.Store(p)
	return p
}

// maxRecs bounds the per-phase record array the ownership table and the
// span file are built from; phases with more messages keep every stride-th.
const maxRecs = 1 << 14

// leave waits for everything in flight to be delivered (a message still
// missing after the grace period is lost), then closes the phase's books.
func (h *harness) leave(p *phaseState) {
	h.clk.waitFor(int64(2*time.Second), func() bool { return h.inflight() <= 0 })
	p.end = h.clk.now()
	p.cpu1, p.gen1 = processCPUus(), threadCPUus()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc1, p.gc1 = ms.TotalAlloc, uint64(ms.NumGC)
	p.cnt1 = h.sys.counters()
	if n := h.inflight(); n > 0 {
		// Lost messages keep their slots busy; forget them so the next
		// phase starts with a clean window. The checker still counts them.
		h.sent -= uint64(n)
		for i := range h.buf.slots {
			h.buf.slots[i].busy.Store(0)
		}
	}
}

// emit issues n messages due at due and hands them to the system.
func (h *harness) emit(due int64, n int) {
	p := h.cur.Load()
	b := h.batch[:0]
	for i := 0; i < n; i++ {
		t := int(h.draws[h.drawPos])
		if h.drawPos++; h.drawPos == len(h.draws) {
			h.drawPos = 0
		}
		id, s := h.acquire()
		s.busy.Store(1)
		if p.spec.traced {
			for k := range s.stamps {
				s.stamps[k].Store(0)
			}
		}
		h.seqs[t]++
		buf := h.buf.bufs[id&h.mask]
		h.w.put(buf, msg{tenant: uint32(t), id: id, seq: h.seqs[t], due: due})
		b = append(b, outMsg{tenant: t, id: id, p: buf})
	}
	h.batch = b
	h.issued += uint64(n)
	h.sent += uint64(n)
	p.sent += uint64(n)
	c0 := threadCPUus()
	r := h.sys.submit(b, p.spec.traced)
	p.submitCPUus += threadCPUus() - c0
	if r > 0 {
		h.refused += uint64(r)
		p.refused += uint64(r)
	}
}

// acquire picks the next message id whose slot is free. The plane's batch
// entry point says how many items it refused, not which, so a refused
// message's slot stays busy until the phase ends; once refusals are known
// the generator passes over busy slots instead of waiting for them.
func (h *harness) acquire() (uint64, *slot) {
	for tries := 0; ; tries++ {
		h.nextID++
		s := h.slot(h.nextID)
		if s.busy.Load() == 0 {
			return h.nextID, s
		}
		if h.refused == 0 || tries >= len(h.buf.slots) {
			h.awaitSlot(s)
			return h.nextID, s
		}
	}
}

// awaitSlot blocks the generator until the message that last used s has
// been delivered: the payload pool is the generator's send window. A slot
// still busy after 200 ms belongs to a message the system refused or lost
// (the checker counts it) and is taken over; from then on the run has
// failed anyway, and later stragglers get 1 ms so it still ends on time.
func (h *harness) awaitSlot(s *slot) {
	patience := int64(200 * time.Millisecond)
	if h.slotSteals > 0 {
		patience = int64(time.Millisecond)
	}
	if !h.clk.waitFor(patience, func() bool { return s.busy.Load() == 0 }) {
		h.slotSteals++
	}
}

// deliver is the receiving end: called with every payload the system hands
// back (OnDeliver on a plane worker, or an SSE frame off the subscriber
// socket), it verifies the message, times it from its due instant and
// releases its slot.
func (h *harness) deliver(tenant int, payload []byte) {
	m, ok := h.w.get(payload)
	if !ok || int(m.tenant) != tenant || tenant >= len(h.chk.tenants) || m.seq == 0 {
		h.chk.corrupt.Add(1)
		return
	}
	h.chk.observe(tenant, m.seq)
	p := h.cur.Load()
	s := h.slot(m.id)
	if p.spec.timed {
		now := h.clk.now()
		p.lat.add(tenant, now-m.due)
		if p.spec.traced {
			h.traceDeliver(p, s, m, now)
		}
	}
	s.busy.Store(0)
	p.delivered[tenant&(cntStripes-1)].n.Add(1)
}

// traceDeliver turns the message's stamps into the five consecutive
// segments of its life. Break points are forced monotone: a message the
// worker picked up before the entry call returned has no admit-to-handler
// wait, and its ingress segment ends where its handler began.
func (h *harness) traceDeliver(p *phaseState, s *slot, m msg, now int64) {
	// clamp puts a stamp between its neighbours; a missing one (0) counts
	// as taken at the later neighbour.
	clamp := func(at int, lo, hi int64) int64 {
		switch x := s.stamps[at].Load(); {
		case x == 0 || x > hi:
			return hi
		case x < lo:
			return lo
		default:
			return x
		}
	}
	mid := stAdmit
	if h.wl.kind == kindEdge {
		mid = stSrv1
	}
	send := clamp(stSend, m.due, now)
	hstart := clamp(stHstart, send, now)
	b := [nSeg + 1]int64{m.due, send, clamp(mid, send, hstart), hstart, clamp(stHend, hstart, now), now}
	stripe := int(m.tenant)
	var r rec
	for i := 0; i < nSeg; i++ {
		r.seg[i] = b[i+1] - b[i]
		p.layers[lhSeg0+i].add(stripe, r.seg[i])
	}
	if h.wl.kind == kindEdge {
		if s0, s1 := s.stamps[stSrv0].Load(), s.stamps[stSrv1].Load(); s0 != 0 && s1 >= s0 {
			p.layers[lhServe].add(stripe, s1-s0)
		}
	}
	if m.id%p.stride == 0 {
		if i := p.recN.Add(1) - 1; int(i) < len(p.recs) {
			r.id, r.due = m.id, m.due
			p.recs[i] = r
		}
	}
}

// stampHandler is called by the benchmark's handlers around their work.
func (h *harness) stampHandler(payload []byte, t0, t1 int64) {
	if id, ok := h.w.id(payload); ok {
		s := h.slot(id)
		s.stamps[stHstart].Store(t0)
		s.stamps[stHend].Store(t1)
	}
}

// runPhase drives one phase from the calling (generator) goroutine.
func (h *harness) runPhase(spec phaseSpec) *phaseState {
	p := h.enter(spec)
	ticks := int(spec.dur / tick)
	tickNo := 0
	sample := func() {
		n := h.inflight()
		if n > p.inflightMax {
			p.inflightMax = n
		}
		if g := runtime.NumGoroutine(); g > p.goroutineMax {
			p.goroutineMax = g
		}
		switch {
		case tickNo < ticks/4:
			p.inflightHead += float64(n)
			p.headN++
		case tickNo >= ticks-ticks/4:
			p.inflightTail += float64(n)
			p.tailN++
		}
		tickNo++
	}
	if spec.open {
		openLoop(h.clk, p.start, spec.dur, spec.rate, h.jitter, h.emit, func(late int64) {
			p.late.add(late)
			sample()
		})
	} else {
		closedLoop(h.clk, p.start+spec.dur, h.wl.window, h.wl.burst, h.inflight, func(due int64, n int) {
			h.emit(due, n)
			if p.goroutineMax == 0 {
				p.goroutineMax = runtime.NumGoroutine()
			}
		})
	}
	h.leave(p)
	return p
}

// handshake sends the first message and waits for its delivery: the end of
// set-up.
func (h *harness) handshake() error {
	h.emit(h.clk.now(), 1)
	if !h.clk.waitFor(int64(10*time.Second), func() bool { return h.inflight() <= 0 }) {
		return fmt.Errorf("%s: first message not delivered within 10s", h.wl.name)
	}
	return nil
}
