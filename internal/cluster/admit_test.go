package cluster

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster/frame"
)

// newAdmitNode builds a started single-member node (it owns every
// tenant) over a plane with the given config, logging deliveries by the
// id encoded in each payload.
func newAdmitNode(t testing.TB, pc dataplane.Config, dedupWindow int) *testNode {
	t.Helper()
	tn := &testNode{got: make(map[uint64]int)}
	handler := pc.Handler
	pc.Handler = func(tenant int, payload []byte) ([]byte, error) {
		if handler != nil {
			return handler(tenant, payload)
		}
		return payload, nil
	}
	pc.OnDeliver = func(_ int, payload []byte, _ uint64) {
		if len(payload) >= 8 {
			tn.mu.Lock()
			tn.got[binary.LittleEndian.Uint64(payload)]++
			tn.mu.Unlock()
		}
	}
	p, err := dataplane.New(pc)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	n, err := NewNode(Config{ID: "a", Plane: p, DedupWindow: dedupWindow})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	tn.node, tn.plane = n, p
	t.Cleanup(func() {
		n.Stop()
		p.Stop()
	})
	return tn
}

// batchItem is one item of a hand-built batch frame; its payload is the
// delivery key (payloadFor(key)).
type batchItem struct {
	tenant uint32
	id     uint64
	key    uint64
}

// batchFrame encodes items as one complete batch frame.
func batchFrame(items []batchItem) []byte {
	var e frame.Encoder
	e.Reset()
	for _, it := range items {
		e.Add(it.tenant, it.id, payloadFor(it.key))
	}
	return append([]byte(nil), e.Finish()...)
}

// TestAdmitFrameSuppressesInFrameDuplicates: ids are remembered only
// after the plane accepted them, so copies of one id inside a single
// frame must be caught against each other — per tenant, and across
// non-adjacent runs of the same tenant. The same id under another
// tenant, and anonymous items, are not duplicates.
func TestAdmitFrameSuppressesInFrameDuplicates(t *testing.T) {
	tn := newAdmitNode(t, dataplane.Config{Tenants: 8}, 0)
	f := batchFrame([]batchItem{
		{tenant: 1, id: 7, key: 100},
		{tenant: 1, id: 7, key: 101}, // duplicate, same run
		{tenant: 2, id: 7, key: 102}, // same id, other tenant: distinct
		{tenant: 1, id: 7, key: 103}, // duplicate, later run of tenant 1
		{tenant: 1, id: 8, key: 104},
		{tenant: 3, id: 0, key: 105}, // anonymous twice: both admitted
		{tenant: 3, id: 0, key: 106},
		{tenant: 2, id: 7, key: 107}, // duplicate of tenant 2's 7
	})
	var a admission
	if !tn.node.receiveBatch(&a, nil) {
		t.Fatal("empty frame refused")
	}
	if !tn.node.receiveBatch(&a, f[frame.HeaderSize:]) {
		t.Fatal("well-formed frame refused")
	}
	waitUntil(t, 10*time.Second, "frame delivery", func() bool { return tn.totalDeliveries() == 5 })
	for _, key := range []uint64{100, 102, 104, 105, 106} {
		if tn.deliveries(key) != 1 {
			t.Errorf("item %d delivered %d times, want 1", key, tn.deliveries(key))
		}
	}
	m := tn.node.Metrics()
	if got := m.RecvDeduped.Load(); got != 3 {
		t.Errorf("RecvDeduped = %d, want 3", got)
	}
	if got := m.ReceivedItems.Load(); got != 5 {
		t.Errorf("ReceivedItems = %d, want 5", got)
	}
	// A replay of the whole frame is now suppressed by the windows; only
	// the anonymous items go through again.
	if !tn.node.receiveBatch(&a, f[frame.HeaderSize:]) {
		t.Fatal("replayed frame refused")
	}
	waitUntil(t, 10*time.Second, "replay delivery", func() bool { return tn.totalDeliveries() == 7 })
	if got := m.RecvDeduped.Load(); got != 3+6 {
		t.Errorf("RecvDeduped after replay = %d, want 9", got)
	}
}

// TestAdmitFrameRingFullNotRemembered: an id whose item the plane
// refused (ring full) must not enter the window, or the sender's retry
// would be suppressed and the message lost. Replaying the frame until
// everything is in delivers every id exactly once.
func TestAdmitFrameRingFullNotRemembered(t *testing.T) {
	gate := make(chan struct{})
	tn := newAdmitNode(t, dataplane.Config{
		Tenants:      4,
		RingCapacity: 8,
		Handler: func(_ int, payload []byte) ([]byte, error) {
			<-gate
			return payload, nil
		},
	}, 0)
	const items = 64
	// Two tenants interleaved: the refusals are not a suffix of the frame.
	var its []batchItem
	for i := uint64(1); i <= items; i++ {
		its = append(its, batchItem{tenant: uint32(i % 2), id: i, key: i})
	}
	f := batchFrame(its)
	var a admission
	m := tn.node.Metrics()
	if !tn.node.receiveBatch(&a, f[frame.HeaderSize:]) {
		t.Fatal("frame refused")
	}
	accepted, rejected := m.ReceivedItems.Load(), m.RecvRejected.Load()
	if accepted == 0 || rejected == 0 || accepted+rejected != items {
		t.Fatalf("first pass accepted %d rejected %d of %d, want both non-zero and summing", accepted, rejected, items)
	}
	close(gate)
	deadline := time.Now().Add(20 * time.Second)
	for m.ReceivedItems.Load() < items {
		if time.Now().After(deadline) {
			t.Fatalf("retries admitted only %d of %d", m.ReceivedItems.Load(), items)
		}
		time.Sleep(time.Millisecond)
		before := m.ReceivedItems.Load()
		dedupBefore := m.RecvDeduped.Load()
		tn.node.receiveBatch(&a, f[frame.HeaderSize:])
		if got := m.RecvDeduped.Load() - dedupBefore; got != before {
			t.Fatalf("retry suppressed %d ids, want exactly the %d admitted so far", got, before)
		}
	}
	waitUntil(t, 10*time.Second, "all ids delivered", func() bool { return tn.totalDeliveries() == items })
	for i := uint64(1); i <= items; i++ {
		if tn.deliveries(i) != 1 {
			t.Fatalf("id %d delivered %d times, want 1", i, tn.deliveries(i))
		}
	}
}

// TestCrossShardFramesDoNotDeadlock: two inbound connections stream
// frames whose tenants cover the same dedup shards in opposite orders.
// Admission takes a frame's shards in ascending order whatever the item
// order, so the two streams interleave instead of deadlocking.
func TestCrossShardFramesDoNotDeadlock(t *testing.T) {
	const tenants, frames = 2 * dedupShards, 150
	tn := newAdmitNode(t, dataplane.Config{Tenants: tenants, RingCapacity: 1 << 10}, 0)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", tn.node.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			its := make([]batchItem, tenants)
			for f := 0; f < frames; f++ {
				for i := range its {
					tenant := i
					if c == 1 {
						tenant = tenants - 1 - i
					}
					key := uint64(c)<<40 | uint64(f)<<16 | uint64(i)
					its[i] = batchItem{tenant: uint32(tenant), id: key, key: key}
				}
				if _, err := conn.Write(batchFrame(its)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m := tn.node.Metrics()
	waitUntil(t, 30*time.Second, "both streams admitted", func() bool {
		return m.ReceivedItems.Load()+m.RecvRejected.Load() == 2*frames*tenants
	})
	if e := m.FrameErrors.Load(); e != 0 {
		t.Fatalf("FrameErrors = %d", e)
	}
}

// TestAdmitFrameLocalAnonymousMeetsForwarded: anonymous local Ingress
// and bridge-forwarded traffic for ONE tenant reach the owner's plane
// from two goroutines. Both go through the tenant's dedup shard, so the
// default single-producer ingress ring still sees one producer at a
// time (-race is the check) and nothing is lost or doubled.
func TestAdmitFrameLocalAnonymousMeetsForwarded(t *testing.T) {
	const tenants, each = 64, 3000
	nodes := newTestCluster(t, 2, tenants)
	a, b := nodes[0], nodes[1]
	tenant := tenantOwnedBy(t, nodes, b.node.ID(), tenants)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= each; i++ {
			if !a.node.Ingress(tenant, i, payloadFor(i)) {
				t.Errorf("forwarded ingress %d refused", i)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= each; i++ {
			if !b.node.Ingress(tenant, 0, payloadFor(1<<32|i)) {
				t.Errorf("local anonymous ingress %d refused", i)
				return
			}
		}
	}()
	wg.Wait()
	waitUntil(t, 20*time.Second, "both streams delivered", func() bool { return b.totalDeliveries() == 2*each })
	for i := uint64(1); i <= each; i++ {
		if b.deliveries(i) != 1 || b.deliveries(1<<32|i) != 1 {
			t.Fatalf("item %d delivered %d (forwarded) / %d (local) times, want 1 / 1",
				i, b.deliveries(i), b.deliveries(1<<32|i))
		}
	}
}

// admitBench is BenchmarkAdmitFrame's fixture: a node that owns every
// tenant and a cycle of pre-encoded 64-item frames, one item per tenant,
// ids unique across the cycle. The dedup window is shorter than the
// cycle, so an id has left its tenant's window by the time its frame
// comes round again and every pass admits all 64 items.
type admitBench struct {
	tn     *testNode
	frames [][]byte
	a      admission
	next   int
}

func newAdmitBench(tb testing.TB, handler dataplane.Handler) *admitBench {
	const tenants, cycle = 64, 256
	ab := &admitBench{tn: newAdmitNode(tb, dataplane.Config{Tenants: tenants, RingCapacity: 1 << 12, Handler: handler}, cycle/4)}
	its := make([]batchItem, tenants)
	for f := 0; f < cycle; f++ {
		for i := range its {
			// Scatter the tenants like hashed traffic does: runs of one.
			its[i] = batchItem{tenant: uint32((i*37 + f) % tenants), id: uint64(f+1)<<8 | uint64(i)}
		}
		ab.frames = append(ab.frames, batchFrame(its)[frame.HeaderSize:])
	}
	return ab
}

func (ab *admitBench) admitOne() {
	ab.tn.node.receiveBatch(&ab.a, ab.frames[ab.next%len(ab.frames)])
	ab.next++
}

// BenchmarkAdmitFrame times the receive path of one 64-item, 64-tenant
// frame: owned copy, decode, shard sweep, dedup probes, one IngressBatch.
func BenchmarkAdmitFrame(b *testing.B) {
	ab := newAdmitBench(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab.admitOne()
	}
	b.StopTimer()
	m := ab.tn.node.Metrics()
	b.ReportMetric(float64(m.ReceivedItems.Load())/float64(b.N), "items/frame")
}

// TestAdmitFrameAllocs pins the warm receive path at one allocation per
// frame: the owned copy of the payload that the plane's items point
// into. Decode scratch, shard sweep, window probes, the in-frame set and
// the plane's batch plan all reuse their memory.
func TestAdmitFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	// AllocsPerRun counts every goroutine, and a plane worker allocates
	// a waiter each time it parks: wedge the workers in the handler so
	// only the receive path runs. The rings hold the test's frames.
	gate := make(chan struct{})
	ab := newAdmitBench(t, func(_ int, payload []byte) ([]byte, error) {
		<-gate
		return payload, nil
	})
	t.Cleanup(func() { close(gate) })
	for i := 0; i < 2*len(ab.frames); i++ {
		ab.admitOne() // warm: windows allocated and wrapped, scratch grown
	}
	if avg := testing.AllocsPerRun(200, ab.admitOne); avg != 1 {
		t.Errorf("allocations per admitted frame = %v, want 1 (the owned payload copy)", avg)
	}
	if m := ab.tn.node.Metrics(); m.RecvRejected.Load() != 0 || m.RecvDeduped.Load() != 0 {
		t.Errorf("fixture refused work: rejected %d deduped %d", m.RecvRejected.Load(), m.RecvDeduped.Load())
	}
}
