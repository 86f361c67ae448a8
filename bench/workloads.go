package main

import (
	"math/rand"
	"runtime"
	"time"
)

type kind int

const (
	kindPlane kind = iota
	kindEdge
	kindFed
)

// segNames names the five consecutive segments of a message's life (see
// traceDeliver) after the layer that owns each, per workload kind.
var segNames = map[kind][nSeg]string{
	kindPlane: {"gen.late", "plane.ingress_call", "plane.notify_wait", "plane.handler", "plane.deliver"},
	kindEdge:  {"gen.late", "edge.post", "edge.stage_wait", "plane.handler", "edge.egress"},
	kindFed:   {"gen.late", "cluster.ingress_call", "cluster.bridge_wait", "plane.handler", "plane.deliver"},
}

// workload is one traffic mix against one entry point. rateLow and rateMid
// are absolute and frozen: calibrated once on the seed commit to about 2 %
// and 50 % of its saturated rate (README, calibration record), so a later
// commit is measured at the same offered load, not at a share of its own.
type workload struct {
	name, why string
	kind      kind
	tenants   int
	wire      wire
	slots     int // payload pool = the generator's hard send window
	rateLow   float64
	rateMid   float64
	satGuess  float64 // the seed's saturated rate; sizes the traced record stride only
	window    int     // closed loop: most messages between hand-over and delivery
	burst     int     // closed loop: most messages per hand-over
	midP99Us  float64 // validity limit on lat_mid_p99_us
	draw      func(rng *rand.Rand, tenants int) []uint16
	build     func(h *harness) (system, error)
}

// conns is the connection count per role of the socket workload: half the
// cores for the clients, the rest for the server.
func conns() int {
	if c := runtime.NumCPU() / 2; c > 1 {
		return c
	}
	return 1
}

// lateLimitUs is the validity limit on the generator's own lateness (p99 of
// how far behind its schedule a tick started): one tick. On its own core the
// generator is late only when the host stalls it; a pinned spinner on this
// VM sees about seven gaps over 200 µs a second, so p99 sits at 20-600 µs.
const lateLimitUs = 1000

const drawTable = 1 << 16

func drawRoundRobin(_ *rand.Rand, tenants int) []uint16 {
	d := make([]uint16, tenants)
	for i := range d {
		d[i] = uint16(i)
	}
	return d
}

func drawZipf(rng *rand.Rand, tenants int) []uint16 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(tenants-1))
	d := make([]uint16, drawTable)
	for i := range d {
		d[i] = uint16(z.Uint64())
	}
	return d
}

var workloads = []*workload{
	{
		name: "plane-uniform-1k",
		why:  "1024 tenants, one 64 B item per queue per burst: notify, wake, select and single-item ring ops are nearly all the work (throughput vs. queue count)",
		kind: kindPlane, tenants: 1024, wire: wire{size: 64}, slots: 1 << 14,
		rateLow: 60e3, rateMid: 600e3, satGuess: 2.9e6,
		window: 8192, burst: 1024, midP99Us: 1000,
		draw: drawRoundRobin, build: buildPlaneUniform,
	},
	{
		name: "plane-skew-heavy",
		why:  "64 tenants, Zipf(1.1), 1 KiB items, CRC batch handler: deep hot queues make ring batching, worker balance and handler time the work, while select does little",
		kind: kindPlane, tenants: 64, wire: wire{size: 1024, trailer: 4}, slots: 1 << 13,
		rateLow: 36e3, rateMid: 700e3, satGuess: 1.7e6,
		window: 512, burst: 64, midP99Us: 1000,
		draw: drawZipf, build: buildPlaneSkew,
	},
	{
		name: "edge-http-sse",
		why:  "pipelined HTTP POST in, SSE frame out over loopback: HTTP parse, stager flush, broadcaster and socket writes own the path and the plane does little",
		kind: kindEdge, tenants: conns(), wire: wire{size: 128, ascii: true}, slots: 1 << 12,
		rateLow: 1600, rateMid: 40e3, satGuess: 83e3,
		window: 256, burst: 16, midP99Us: 10000,
		draw: drawRoundRobin, build: buildEdge,
	},
	{
		name: "fed-forward",
		why:  "every message enters node A and is owned by node B: staging, frame encode and CRC, the TCP hop, decode and dedup admission do the work; 1 % replays must be suppressed",
		kind: kindFed, tenants: fedPlaneTenants, wire: wire{size: 128}, slots: 1 << 13,
		rateLow: 17e3, rateMid: 300e3, satGuess: 830e3,
		window: 2048, burst: 64, midP99Us: 10000,
		draw: nil, build: buildFed, // draw is set once A's ring has named B's tenants
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stopTimeout bounds every tear-down.
const stopTimeout = 5 * time.Second
