package cluster

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster/frame"
	"hyperplane/internal/dedup"
	"hyperplane/internal/telemetry"
)

// Config parameterizes a federation node.
type Config struct {
	// ID is this node's cluster-wide identity (required, unique).
	ID string
	// ListenAddr is the bridge listener address (default "127.0.0.1:0";
	// read the bound address back with Addr).
	ListenAddr string
	// Peers are the other nodes to dial. Peers may also be added after
	// Start with AddPeer (useful when addresses are only known once
	// every listener is up).
	Peers []PeerSpec
	// VNodes is the consistent-hash replication factor (default
	// DefaultVNodes).
	VNodes int
	// Plane is the local data plane this node fronts (required). The
	// node does not own the plane's lifecycle — callers start and stop
	// it — but it does install per-tenant forwards during handoff.
	Plane *dataplane.Plane

	// FlushBatch seals a staged forward batch at this many items
	// (default 64, matching the edge's stagers); FlushInterval bounds
	// how long a partial batch waits (default 200µs).
	FlushBatch    int
	FlushInterval time.Duration

	// ForwardBuffer bounds each peer's outbox in frames (default 256);
	// ForwardPolicy picks the overflow policy — DropOldest (default) or
	// DropNewest, the plane's existing drop policies applied to the
	// forward path.
	ForwardBuffer int
	ForwardPolicy dataplane.DeliveryPolicy

	// HealthInterval is the ping cadence (default 250ms); HealthTimeout
	// bounds dials and writes (default 1s); DeadAfter is how long a
	// peer stays unreachable (no pong, no connection) before it is
	// declared dead and its tenants re-home (default 2s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	DeadAfter      time.Duration

	// DedupWindow is the per-tenant duplicate-suppression depth for
	// message ids (default 4096; windows allocate lazily per tenant).
	DedupWindow int
	// MaxPayload bounds a received frame's payload (default
	// frame.DefaultMaxPayload).
	MaxPayload int

	// Telemetry, when set, gets the node's ClusterMetrics attached as a
	// hyperplane_cluster_* collector.
	Telemetry *telemetry.T
	// Logf receives bridge lifecycle messages (nil = silent).
	Logf func(format string, args ...any)
}

// dedupShards stripes the per-tenant dedup windows' locks. Frame
// admission ORs a frame's shards into one uint64 mask, so this cannot
// exceed 64.
const dedupShards = 64

// Node federates a local dataplane with its peers: a consistent-hash
// ring maps every tenant to an owning node, Ingress routes to the local
// plane or a peer bridge accordingly, the listener feeds forwarded
// batches into the local plane's batched ingress with per-tenant
// duplicate suppression, and peer death re-homes the dead node's
// tenants onto the survivors — each node recomputes the same ownership
// from its own probes, no coordinator.
type Node struct {
	cfg   Config
	plane *dataplane.Plane
	cm    *telemetry.ClusterMetrics
	logf  func(string, ...any)

	flushBatch    int
	flushInterval time.Duration
	forwardBuffer int
	forwardPolicy dataplane.DeliveryPolicy

	healthInterval time.Duration
	healthTimeout  time.Duration
	deadAfter      time.Duration

	dedupWindow int
	maxPayload  int

	mu        sync.RWMutex
	ring      *Ring
	overrides map[int]string // handoff reroutes, consulted before the ring
	fwdTo     map[int]string // tenants whose plane forward targets a peer
	peers     map[string]*peer
	// owners flattens ring+overrides into the bridge to each tenant's
	// owner (nil = this node owns it). Every n.mu write section that
	// changes either republishes it; Ingress and the receive path read it
	// without taking n.mu. Published tables are immutable.
	owners atomic.Pointer[[]*peer]

	dmu        [dedupShards]sync.Mutex
	windows    []*dedup.Window
	admissions sync.Pool // *admission scratch for local (single-item) admits

	ln      net.Listener
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool
}

// NewNode validates cfg and builds a node. The ring starts with this
// node plus every configured peer (static membership, optimistic);
// death removes members, reconnection adds them back.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: Config.ID required")
	}
	if len(cfg.ID) > 256 {
		return nil, fmt.Errorf("cluster: Config.ID longer than 256 bytes")
	}
	if cfg.Plane == nil {
		return nil, fmt.Errorf("cluster: Config.Plane required")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 64
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 200 * time.Microsecond
	}
	if cfg.ForwardBuffer <= 0 {
		cfg.ForwardBuffer = 256
	}
	if cfg.ForwardPolicy != dataplane.DropNewest {
		cfg.ForwardPolicy = dataplane.DropOldest
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * time.Second
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 4096
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = frame.DefaultMaxPayload
	}
	// Every frame this node can emit must fit its peers' frame cap
	// (the whole cluster runs one MaxPayload config): senders seal
	// batches by byte size, so the only fixed-size frame that could
	// overflow is the handoff State frame carrying a full dedup window.
	if min := frame.BatchRunOverhead + frame.BatchItemOverhead + 1; cfg.MaxPayload < min {
		return nil, fmt.Errorf("cluster: MaxPayload %d cannot carry a single item (need >= %d)", cfg.MaxPayload, min)
	}
	if stateBytes := 4 + 8*cfg.DedupWindow; stateBytes > cfg.MaxPayload {
		return nil, fmt.Errorf("cluster: DedupWindow %d needs a %d-byte state frame, above MaxPayload %d",
			cfg.DedupWindow, stateBytes, cfg.MaxPayload)
	}
	n := &Node{
		cfg:            cfg,
		plane:          cfg.Plane,
		cm:             &telemetry.ClusterMetrics{},
		logf:           cfg.Logf,
		flushBatch:     cfg.FlushBatch,
		flushInterval:  cfg.FlushInterval,
		forwardBuffer:  cfg.ForwardBuffer,
		forwardPolicy:  cfg.ForwardPolicy,
		healthInterval: cfg.HealthInterval,
		healthTimeout:  cfg.HealthTimeout,
		deadAfter:      cfg.DeadAfter,
		dedupWindow:    cfg.DedupWindow,
		maxPayload:     cfg.MaxPayload,
		ring:           NewRing(cfg.VNodes),
		overrides:      make(map[int]string),
		fwdTo:          make(map[int]string),
		peers:          make(map[string]*peer),
		windows:        make([]*dedup.Window, cfg.Plane.Tenants()),
		conns:          make(map[net.Conn]struct{}),
	}
	n.admissions.New = func() any { return new(admission) }
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	n.ring.Add(cfg.ID)
	for _, spec := range cfg.Peers {
		if spec.ID == "" || spec.ID == cfg.ID {
			return nil, fmt.Errorf("cluster: bad peer id %q", spec.ID)
		}
		if _, dup := n.peers[spec.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", spec.ID)
		}
		n.peers[spec.ID] = newPeer(n, spec)
		n.ring.Add(spec.ID)
	}
	n.publishOwnersLocked()
	n.cm.PeerGauges = n.writePeerGauges
	if cfg.Telemetry != nil {
		cfg.Telemetry.AttachCollector(n.cm.WriteProm)
	}
	return n, nil
}

// Start binds the bridge listener and starts the peer dialers.
func (n *Node) Start() error {
	if !n.started.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: node already started")
	}
	ln, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		n.started.Store(false)
		return err
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	// Exclusive lock: peer starts must serialize with the shutdown
	// snapshot so Stop joins exactly the set of running peers.
	n.mu.Lock()
	if !n.stopped.Load() {
		for _, pr := range n.peers {
			pr.start()
		}
	}
	n.mu.Unlock()
	return nil
}

// Addr returns the bound bridge address (valid after Start).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Plane returns the local data plane.
func (n *Node) Plane() *dataplane.Plane { return n.plane }

// Metrics returns the node's federation counters.
func (n *Node) Metrics() *telemetry.ClusterMetrics { return n.cm }

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.ID }

// AddPeer registers and starts dialing a peer discovered after Start.
// Insertion, the stop check, and the goroutine launch all happen under
// n.mu so AddPeer cannot race shutdown into a peer that runs unjoined:
// either the peer is inserted (and started) before the shutdown
// snapshot — which then stops and joins it — or AddPeer observes
// stopped and refuses.
func (n *Node) AddPeer(spec PeerSpec) error {
	if spec.ID == "" || spec.ID == n.cfg.ID {
		return fmt.Errorf("cluster: bad peer id %q", spec.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped.Load() {
		return fmt.Errorf("cluster: node stopped")
	}
	if _, dup := n.peers[spec.ID]; dup {
		return fmt.Errorf("cluster: duplicate peer id %q", spec.ID)
	}
	pr := newPeer(n, spec)
	n.peers[spec.ID] = pr
	n.ring.Add(spec.ID)
	n.clearOverridesLocked()
	if n.started.Load() {
		pr.start()
	}
	return nil
}

// Members returns the current ring membership (sorted).
func (n *Node) Members() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring.Members()
}

// Owner returns the node id owning tenant right now: a handoff override
// if one is in force, the consistent-hash ring otherwise ("" for a
// tenant the plane does not have).
func (n *Node) Owner(tenant int) string {
	tab := *n.owners.Load()
	if uint(tenant) >= uint(len(tab)) {
		return ""
	}
	if pr := tab[tenant]; pr != nil {
		return pr.id
	}
	return n.cfg.ID
}

// publishOwnersLocked recomputes ownership and publishes a fresh owner
// table: every tenant after a membership change (no arguments), or just
// the named tenants on a copy of the current table after an override
// flip. Ring members and override targets are always this node or one
// of n.peers. Caller holds n.mu for writing.
func (n *Node) publishOwnersLocked(tenants ...int) {
	tab := make([]*peer, len(n.windows))
	set := func(t int) {
		id, ok := n.overrides[t]
		if !ok {
			id = n.ring.Owner(t)
		}
		tab[t] = n.peers[id] // nil for n.cfg.ID
	}
	if len(tenants) == 0 {
		for t := range tab {
			set(t)
		}
	} else {
		copy(tab, *n.owners.Load())
		for _, t := range tenants {
			set(t)
		}
	}
	n.owners.Store(&tab)
}

// Local reports whether tenant is currently served by this node's own
// plane. Together with Ingress it satisfies the edge's Router
// interface, letting an HTTP front route-or-forward at admission.
func (n *Node) Local(tenant int) bool { return n.Owner(tenant) == n.cfg.ID }

// Ingress routes one item: admitted into the local plane when this node
// owns the tenant (with msgID-based duplicate suppression; 0 means
// anonymous), staged onto the owner's bridge otherwise. A payload
// handed to a remote owner is copied before Ingress returns.
func (n *Node) Ingress(tenant int, msgID uint64, payload []byte) bool {
	if n.stopped.Load() {
		return false
	}
	tab := *n.owners.Load()
	if uint(tenant) >= uint(len(tab)) {
		return false
	}
	if pr := tab[tenant]; pr != nil {
		if !pr.send(uint32(tenant), msgID, payload) {
			return false
		}
		n.cm.Forwarded.Add(1)
		return true
	}
	a := n.admissions.Get().(*admission)
	a.add(tenant, msgID, payload)
	_, rejected := n.admit(a) // one item: admitted, a known duplicate, re-forwarded — or refused
	n.admissions.Put(a)
	return rejected == 0
}

// admission is the reusable scratch of one admit call: the decoded items
// of a received frame (or the single item of a local Ingress), compacted
// in place to the survivors the plane is offered.
type admission struct {
	items []dataplane.IngressItem
	ids   []uint64 // parallel to items
	rej   []int    // indexes into items the plane refused
	stale []staleItem
	// seen is an open-addressed set of survivor indexes (+1; 0 = empty)
	// keyed by (tenant, id): ids are remembered only after the plane
	// accepted them, so a second copy inside the same frame passes the
	// window probe and has to be caught here.
	seen []int32
}

// staleItem is a received item whose tenant another node owns by now.
type staleItem struct {
	pr     *peer
	tenant int
	id     uint64
	body   []byte
}

func (a *admission) add(tenant int, id uint64, body []byte) {
	a.items = append(a.items, dataplane.IngressItem{Tenant: tenant, Payload: body})
	a.ids = append(a.ids, id)
}

// resetSeen sizes the in-frame set for n items, at most half full.
func (a *admission) resetSeen(n int) {
	size := 1 << bits.Len(uint(2*max(n, 1)-1))
	if cap(a.seen) < size {
		a.seen = make([]int32, size)
		return
	}
	a.seen = a.seen[:size]
	clear(a.seen)
}

// firstInFrame reports whether no survivor so far (items[:k]) carries
// (tenant, id), claiming slot k for it if so.
func (a *admission) firstInFrame(tenant int, id uint64, k int) bool {
	mask := len(a.seen) - 1
	for h := int(mix64(id+uint64(tenant)*0x9E3779B97F4A7C15)) & mask; ; h = (h + 1) & mask {
		j := a.seen[h]
		if j == 0 {
			a.seen[h] = int32(k + 1)
			return true
		}
		if a.ids[j-1] == id && a.items[j-1].Tenant == tenant {
			return false
		}
	}
}

// window returns tenant's dedup window, allocating it on first use.
// Caller holds the tenant's dedup shard.
func (n *Node) window(tenant int) *dedup.Window {
	w := n.windows[tenant]
	if w == nil {
		w = dedup.NewWindow(n.dedupWindow)
		n.windows[tenant] = w
	}
	return w
}

// admit is the one admission path, for a received frame and for a local
// Ingress alike. It takes the dedup shard of every tenant in a — in
// ascending shard order, so concurrent frames cannot deadlock — then,
// under those locks: checks ownership against the owner table, drops
// ids the tenant's window (or an earlier item of a) has seen, offers the
// survivors to the plane in ONE IngressBatch, and remembers exactly the
// ids the plane accepted, so a backpressured retry is not wrongly
// suppressed. The locks stay held across the plane call: that is what
// makes "probe, push, remember" atomic per tenant, and it keeps one
// producer at a time on each tenant's (possibly SPSC) ingress ring.
//
// Ownership is checked under the shard because a handoff flips the
// override while holding it: an admit that raced the flip either
// completed before the window snapshot was taken or sees the new owner
// here — no id can slip between the snapshot and the flip. Items of a
// stale sender (one that has not yet processed a handoff marker or a
// membership change) re-forward to the current owner once the locks are
// released, WITH their message ids — relaying them anonymously through
// the plane-level forward would strip the ids and defeat the owner's
// window, double-delivering any id that also reached the owner directly.
// Frame order makes the bounce converge: the handoff marker precedes any
// re-forwarded frame in the peer's FIFO outbox, so the receiving owner
// admits rather than bouncing back.
//
// It returns how many items the plane accepted and how many were refused
// (bad tenant, ring full, or a stale item its owner's bridge would not
// take); the rest were duplicates or re-forwarded, and are counted in
// RecvDeduped and Forwarded here. a is left empty.
func (n *Node) admit(a *admission) (accepted, rejected int) {
	var mask uint64
	for i := range a.items {
		if t := a.items[i].Tenant; uint(t) < uint(len(n.windows)) {
			mask |= 1 << (uint(t) % dedupShards)
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		n.dmu[bits.TrailingZeros64(m)].Lock()
	}
	tab := *n.owners.Load()
	decoded := len(a.items)
	a.resetSeen(decoded)
	deduped, forwarded := 0, 0
	k := 0 // survivors so far, compacted to the front of items/ids
	for i := 0; i < decoded; i++ {
		it, id := a.items[i], a.ids[i]
		if uint(it.Tenant) >= uint(len(n.windows)) {
			rejected++
			continue
		}
		if pr := tab[it.Tenant]; pr != nil {
			a.stale = append(a.stale, staleItem{pr, it.Tenant, id, it.Payload})
			continue
		}
		if id != 0 && (n.window(it.Tenant).Seen(id) || !a.firstInFrame(it.Tenant, id, k)) {
			deduped++
			continue
		}
		a.items[k], a.ids[k] = it, id
		k++
	}
	if k > 0 {
		accepted, a.rej = n.plane.IngressBatchRejected(a.items[:k], a.rej[:0])
		rejected += len(a.rej)
		r := 0
		for i, id := range a.ids[:k] {
			if r < len(a.rej) && a.rej[r] == i {
				r++
			} else if id != 0 {
				n.windows[a.items[i].Tenant].Remember(id, 0)
			}
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		n.dmu[bits.TrailingZeros64(m)].Unlock()
	}
	for _, st := range a.stale {
		if st.pr.send(uint32(st.tenant), st.id, st.body) {
			forwarded++
		} else {
			rejected++
		}
	}
	if deduped > 0 {
		n.cm.RecvDeduped.Add(int64(deduped))
	}
	if forwarded > 0 {
		n.cm.Forwarded.Add(int64(forwarded))
	}
	// Drop the payload references: the scratch outlives the frame.
	clear(a.items[:decoded])
	clear(a.stale)
	a.items, a.ids, a.stale = a.items[:0], a.ids[:0], a.stale[:0]
	return accepted, rejected
}

// Handoff gracefully transfers a tenant to peer `to`: ship the
// tenant's dedup-window state, reroute new arrivals (node-level
// override plus a plane-level forward for raw producers), drain the
// locally queued backlog through the plane's per-tenant drain, flush
// the forwarded tail, then send the ownership marker. State snapshot
// and override flip happen under the tenant's dedup shard lock, so no
// admission can land between them; the state frame precedes every
// forwarded duplicate in the outbox, so the new owner's window is
// primed before traffic arrives. Until membership changes, other nodes
// keep sending to this node; those bridge arrivals re-forward to the
// new owner with their message ids intact (admit's ownership
// re-check), while the plane-level forward installed here relays only
// raw local producers — anonymous items that never had an id.
//
// An override lives only as long as the ring it was minted against:
// any membership change invalidates all overrides cluster-wide
// (clearOverridesLocked), and a handoff that races such a change
// aborts instead of leaving a stale forward behind.
func (n *Node) Handoff(ctx context.Context, tenant int, to string) error {
	if to == n.cfg.ID {
		return fmt.Errorf("cluster: handoff of tenant %d to self", tenant)
	}
	if tenant < 0 || tenant >= len(n.windows) {
		return fmt.Errorf("cluster: tenant %d out of range", tenant)
	}
	n.mu.RLock()
	pr := n.peers[to]
	n.mu.RUnlock()
	if pr == nil {
		return fmt.Errorf("cluster: handoff to unknown peer %q", to)
	}
	sh := &n.dmu[tenant%dedupShards]
	sh.Lock()
	if w := n.windows[tenant]; w != nil && w.Len() > 0 {
		pr.control(frame.AppendState(nil, uint32(tenant), w.AppendIDs(nil)))
	}
	n.mu.Lock()
	n.overrides[tenant] = to
	n.fwdTo[tenant] = to
	n.publishOwnersLocked(tenant)
	n.mu.Unlock()
	sh.Unlock()

	var tail atomic.Int64
	err := n.plane.SetTenantForward(tenant, func(items []dataplane.IngressItem) int {
		c := 0
		for _, it := range items {
			if pr.send(uint32(tenant), 0, it.Payload) {
				c++
			}
		}
		tail.Add(int64(c))
		return c
	})
	if err != nil {
		n.mu.Lock()
		delete(n.overrides, tenant)
		delete(n.fwdTo, tenant)
		n.publishOwnersLocked(tenant)
		n.mu.Unlock()
		return err
	}
	// A ring membership change invalidates overrides wholesale
	// (clearOverridesLocked); if one raced the forward installation
	// above, the fwdTo entry is already gone and the forward we just
	// installed would leak. Re-check and abort — ownership has fallen
	// back to the ring, which every node computes identically.
	n.mu.RLock()
	_, still := n.fwdTo[tenant]
	n.mu.RUnlock()
	if !still {
		n.plane.SetTenantForward(tenant, nil)
		return fmt.Errorf("cluster: handoff of tenant %d to %s aborted by a membership change", tenant, to)
	}
	if err := n.plane.DrainTenant(ctx, tenant); err != nil {
		return fmt.Errorf("cluster: handoff drain of tenant %d: %w", tenant, err)
	}
	// Same race window across the drain: do not send the ownership
	// marker if a membership change voided the handoff mid-flight —
	// the marker would install a fresh override on the target against
	// a ring that no longer backs it.
	n.mu.RLock()
	_, still = n.fwdTo[tenant]
	n.mu.RUnlock()
	if !still {
		return fmt.Errorf("cluster: handoff of tenant %d to %s aborted by a membership change", tenant, to)
	}
	pr.control(frame.AppendHandoff(nil, uint32(tenant), uint64(tail.Load())))
	n.cm.Handoffs.Add(1)
	n.cm.HandoffItems.Add(tail.Load())
	n.logf("cluster: tenant %d handed off to %s (%d tail items)", tenant, to, tail.Load())
	return nil
}

// primeWindow seeds a tenant's dedup window with ids shipped ahead of
// a handoff (oldest first, so relative eviction order is preserved).
func (n *Node) primeWindow(tenant int, ids []uint64) {
	if tenant < 0 || tenant >= len(n.windows) {
		return
	}
	sh := &n.dmu[tenant%dedupShards]
	sh.Lock()
	w := n.window(tenant)
	for _, id := range ids {
		if id != 0 {
			w.Remember(id, 0)
		}
	}
	sh.Unlock()
}

// acceptHandoff records an ownership transfer received from a peer.
func (n *Node) acceptHandoff(tenant int, from string) {
	n.mu.Lock()
	n.overrides[tenant] = n.cfg.ID
	if _, had := n.fwdTo[tenant]; had {
		delete(n.fwdTo, tenant)
		n.plane.SetTenantForward(tenant, nil)
	}
	n.publishOwnersLocked(tenant)
	n.mu.Unlock()
	n.cm.HandoffsInbound.Add(1)
	n.logf("cluster: accepted ownership of tenant %d from %s", tenant, from)
}

// clearOverridesLocked invalidates every handoff override (and the
// plane-level forwards riding them) on a ring membership change. An
// override is a point-in-time patch against a specific ring: nodes that
// never saw the handoff route purely by ring, so once a member joins or
// leaves, keeping the override would split a tenant between the
// override target and the new ring owner, with divergent dedup windows.
// Dropping them falls everything back to ring ownership, which all
// nodes compute identically; in-flight traffic bounces converge through
// admit's ownership re-check, and identified duplicates die in the
// owner's window. The owner table is republished against the new ring
// either way. Caller holds n.mu for writing.
func (n *Node) clearOverridesLocked() {
	if len(n.overrides) != 0 || len(n.fwdTo) != 0 {
		n.logf("cluster: membership change invalidates %d handoff override(s)", len(n.overrides))
		clear(n.overrides)
		for t := range n.fwdTo {
			delete(n.fwdTo, t)
			n.plane.SetTenantForward(t, nil)
		}
	}
	n.publishOwnersLocked()
}

// peerUp re-admits a peer to the ring once a pong proves it alive.
func (n *Node) peerUp(id string) {
	n.mu.Lock()
	if !n.ring.Has(id) {
		n.ring.Add(id)
		n.clearOverridesLocked()
		n.cm.PeerUps.Add(1)
		n.logf("cluster: peer %s up, ring=%v", id, n.ring.Members())
	}
	n.mu.Unlock()
}

// peerDown removes a dead peer from the ring. Its tenants re-home to
// the survivors purely by recomputation — every node's prober reaches
// the same verdict and removes the same member, so the cluster
// converges on identical ownership without coordination. All handoff
// overrides and their plane forwards are invalidated (not just those
// naming the dead node — the membership change may move any tenant's
// ring owner), so affected tenants fall back to the ring.
func (n *Node) peerDown(id string) {
	n.mu.Lock()
	if !n.ring.Has(id) {
		n.mu.Unlock()
		return
	}
	rehomed := 0
	for _, pr := range *n.owners.Load() {
		if pr != nil && pr.id == id {
			rehomed++
		}
	}
	n.ring.Remove(id)
	n.clearOverridesLocked()
	members := n.ring.Members()
	n.mu.Unlock()
	n.cm.PeerDowns.Add(1)
	n.cm.Rehomed.Add(int64(rehomed))
	n.logf("cluster: peer %s down, %d tenants re-home, ring=%v", id, rehomed, members)
}

// acceptLoop owns the bridge listener.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.connMu.Lock()
		if n.stopped.Load() {
			n.connMu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.serveInbound(conn)
	}
}

// serveInbound decodes one peer's frame stream: batches feed the local
// plane a frame at a time, pings are answered in place, a handoff marker
// transfers ownership. Frame-level corruption drops the connection —
// the sender's outbox and the dedup window make the retry safe.
func (n *Node) serveInbound(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
		conn.Close()
	}()
	r := frame.NewReader(conn, n.maxPayload)
	remote := "?"
	var a admission
	for {
		h, payload, err := r.Next()
		if err != nil {
			if err != io.EOF && isFrameErr(err) {
				n.cm.FrameErrors.Add(1)
				n.logf("cluster: dropping connection from %s: %v", remote, err)
			}
			return
		}
		switch h.Type {
		case frame.TypeHello:
			if id, err := frame.ParseHello(payload); err == nil {
				remote = id
			}
		case frame.TypePing:
			nonce, perr := frame.ParsePing(payload)
			if perr != nil {
				n.cm.FrameErrors.Add(1)
				return
			}
			conn.SetWriteDeadline(time.Now().Add(n.healthTimeout))
			if _, werr := conn.Write(frame.AppendPing(nil, frame.TypePong, nonce)); werr != nil {
				return
			}
		case frame.TypeBatch:
			n.cm.ReceivedBatches.Add(1)
			n.cm.ReceivedBytes.Add(int64(len(payload)))
			if !n.receiveBatch(&a, payload) {
				return
			}
		case frame.TypeHandoff:
			tenant, _, herr := frame.ParseHandoff(payload)
			if herr != nil {
				n.cm.FrameErrors.Add(1)
				return
			}
			n.acceptHandoff(int(tenant), remote)
		case frame.TypeState:
			tenant, stateIDs, serr := frame.ParseState(payload)
			if serr != nil {
				n.cm.FrameErrors.Add(1)
				return
			}
			n.primeWindow(int(tenant), stateIDs)
		}
	}
}

// receiveBatch admits one received Batch frame. The frame is the unit
// of admission: decoded whole into a, then admitted in one pass. One
// copy owns every item in it — the plane keeps payload views into that
// copy, the reader's buffer is reused. A frame that passed its CRC but
// does not parse is refused whole and false returned: the connection
// must drop.
func (n *Node) receiveBatch(a *admission, payload []byte) bool {
	it := frame.IterBatch(append([]byte(nil), payload...))
	for {
		t, id, body, ok := it.Next()
		if !ok {
			break
		}
		a.add(int(t), id, body)
	}
	if it.Err() != nil {
		n.cm.FrameErrors.Add(1)
		return false
	}
	accepted, rejected := n.admit(a)
	n.cm.ReceivedItems.Add(int64(accepted))
	if rejected > 0 {
		n.cm.RecvRejected.Add(int64(rejected))
	}
	return true
}

// isFrameErr reports whether err came from frame validation (as opposed
// to an ordinary connection teardown).
func isFrameErr(err error) bool {
	switch err {
	case frame.ErrMagic, frame.ErrVersion, frame.ErrTooLarge,
		frame.ErrCRC, frame.ErrCorrupt, frame.ErrTruncated:
		return true
	}
	return false
}

// writePeerGauges emits the live per-peer series for WriteProm.
func (n *Node) writePeerGauges(w io.Writer) {
	n.mu.RLock()
	prs := make([]*peer, 0, len(n.peers))
	for _, pr := range n.peers {
		prs = append(prs, pr)
	}
	n.mu.RUnlock()
	fmt.Fprintf(w, "# HELP hyperplane_cluster_peer_up Peer connection state (1 = connected).\n")
	fmt.Fprintf(w, "# TYPE hyperplane_cluster_peer_up gauge\n")
	for _, pr := range prs {
		up := 0
		if pr.up.Load() {
			up = 1
		}
		fmt.Fprintf(w, "hyperplane_cluster_peer_up{peer=%q} %d\n", pr.id, up)
	}
	fmt.Fprintf(w, "# HELP hyperplane_cluster_outbox_frames Frames queued for a peer.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_cluster_outbox_frames gauge\n")
	for _, pr := range prs {
		fmt.Fprintf(w, "hyperplane_cluster_outbox_frames{peer=%q} %d\n", pr.id, pr.outboxLen())
	}
}

// Stop shuts the node down gracefully: peers flush and drain their
// outboxes best-effort, the listener and inbound connections close, and
// every goroutine is joined. The plane is left running (the caller owns
// it).
func (n *Node) Stop() { n.shutdown(true) }

// Kill is the chaos-path shutdown: connections and the listener drop on
// the floor with no flush — exactly what a crashed process looks like
// to the survivors.
func (n *Node) Kill() { n.shutdown(false) }

func (n *Node) shutdown(graceful bool) {
	if !n.stopped.CompareAndSwap(false, true) {
		return
	}
	// Exclusive snapshot: peer starts happen under n.mu after a stopped
	// re-check, so once this lock is released no further peer can begin
	// running and every running peer is in prs — the join below cannot
	// miss one (AddPeer racing Stop) or wait on one that never started.
	n.mu.Lock()
	prs := make([]*peer, 0, len(n.peers))
	for _, pr := range n.peers {
		prs = append(prs, pr)
	}
	n.mu.Unlock()
	for _, pr := range prs {
		pr.shutdown(graceful)
	}
	if n.started.Load() {
		if !graceful {
			// Abrupt: sever inbound connections before (not after) the
			// peers notice, like a process death would.
			n.connMu.Lock()
			for c := range n.conns {
				c.Close()
			}
			n.connMu.Unlock()
		}
		n.ln.Close()
	}
	for _, pr := range prs {
		if pr.running.Load() {
			<-pr.done
		}
	}
	if n.started.Load() {
		if graceful {
			n.connMu.Lock()
			for c := range n.conns {
				c.Close()
			}
			n.connMu.Unlock()
		}
		n.wg.Wait()
	}
}
