// Package dataplane assembles the full software-data-plane architecture of
// the HyperPlane paper's Fig. 2 as a real, runnable Go runtime:
//
//	device-side queues  ->  data plane workers  ->  tenant-side queues
//	      (1a/1b)               (2a..2d)                  (3)
//
// An emulated I/O device (or any producer) calls Ingress to place work on a
// tenant's device-side queue and ring its doorbell. Data plane workers are
// notified through the QWAIT runtime (hyperplane.Notifier) — or, for
// baseline comparison, by spin-polling — run the transport Handler, deliver
// the result to the tenant-side queue, and ring the tenant's doorbell.
// Tenants consume with Egress/EgressWait.
//
// The plane degrades instead of dying: handler panics are recovered and
// counted, a supervisor restarts crashed workers with capped exponential
// backoff, tenant-side backpressure is governed by a configurable delivery
// policy so one stalled tenant cannot head-of-line-block its worker, and
// tenants whose handlers fail repeatedly are quarantined via the paper's
// QWAIT-DISABLE primitive and re-probed with backoff. See DESIGN.md
// "Failure model & degradation".
//
// The package is the software analogue of the simulated planes in
// internal/sdp, usable for real measurements on real hardware (see
// BenchmarkPlaneNotify/BenchmarkPlaneSpin).
package dataplane

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperplane"
	"hyperplane/internal/queue"
	"hyperplane/internal/telemetry"
)

// item is what actually travels the rings: the payload plus the durable
// tier's per-tenant sequence number and the producer's message id. On
// in-memory planes seq and msgID are 0 and the wrapper costs nothing but
// the struct copy; on durable planes seq keys the WAL ack at egress and
// msgID keys the dedup window.
type item struct {
	seq     uint64
	msgID   uint64
	payload []byte
	// tag is the producer's opaque per-item cookie (IngressItem.Tag),
	// handed back on the egress hook like a NIC completion cookie. Zero
	// for untagged items; meaningless without Config.OnDeliver.
	tag uint64
}

// Handler performs transport processing on one work item (step 2b). It
// returns the payload to deliver tenant-side; a nil result drops the item.
type Handler func(tenant int, payload []byte) ([]byte, error)

// BatchHandler performs transport processing on a whole drained batch in
// one call, replacing each payloads[i] in place with the result to
// deliver (nil drops that item). Returning an error — or panicking —
// rejects the batch attempt as a whole: the plane then replays the batch
// item by item through Handler, so only the poisoned item is dropped and
// error/panic/quarantine accounting stays identical to per-item dispatch.
// A BatchHandler must therefore leave items it did not successfully
// process intact, and should agree semantically with the configured
// Handler (its per-item fallback).
type BatchHandler func(tenant int, payloads [][]byte) error

// Mode selects the notification mechanism of the data plane workers.
type Mode uint8

// Notification modes.
const (
	// Notify blocks workers in QWAIT (hyperplane.Notifier) — the
	// HyperPlane model. Workers park as soon as a sweep comes up empty.
	Notify Mode = iota
	// Spin makes workers iterate over their queues at full tilt — the
	// software-only baseline.
	Spin
	// Hybrid is Notify with the spin-then-park wait strategy: workers
	// dwell in a bounded spin (the paper's C0) before parking (C1),
	// paying a little idle CPU to dodge the wake cost when traffic is
	// about to arrive. The spin budget is hyperplane.DefaultSpinBudget
	// unless Config.Governor.SpinBudget overrides it.
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case Notify:
		return "notify"
	case Spin:
		return "spin"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode maps a CLI-friendly name to its Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "notify":
		return Notify, nil
	case "spin":
		return Spin, nil
	case "hybrid":
		return Hybrid, nil
	}
	return 0, fmt.Errorf("dataplane: unknown mode %q (want notify, spin or hybrid)", name)
}

// DeliveryPolicy selects what a worker does when a tenant-side ring is full
// (a stalled or slow tenant consumer). Block preserves every item but can
// hold the worker; the drop policies charge the stalled tenant instead of
// head-of-line-blocking every other tenant in the worker's partition.
type DeliveryPolicy uint8

// Delivery policies.
const (
	// Block waits for ring space, bounded by Config.DeliveryTimeout when
	// set (unbounded when zero — the legacy behavior). On timeout the item
	// is dropped and counted in Stats.Dropped.
	Block DeliveryPolicy = iota
	// DropNewest drops the just-processed item when the tenant ring is
	// full; the worker never waits.
	DropNewest
	// DropOldest evicts the oldest undelivered item to make room for the
	// new one; the worker never waits and the tenant sees the freshest
	// results.
	DropOldest
)

func (d DeliveryPolicy) String() string {
	switch d {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return "block"
}

// QuarantineConfig governs tenant quarantine: a tenant whose handler fails
// (error or panic) Threshold times in a row is disabled via the notifier's
// QWAIT-DISABLE primitive, so its backlog stops costing worker time, and is
// re-probed after a backoff that doubles on every failed probe.
type QuarantineConfig struct {
	// Threshold is the consecutive-failure count that quarantines a
	// tenant. 0 disables quarantine.
	Threshold int
	// Backoff is the delay before the first re-probe (default 10ms).
	Backoff time.Duration
	// BackoffMax caps the probe-failure doubling (default 1s).
	BackoffMax time.Duration
}

// Config describes a Plane.
type Config struct {
	// Tenants is the number of tenant queue pairs (device-side RX +
	// tenant-side delivery).
	Tenants int
	// Workers is the number of data plane goroutines; tenant queues are
	// partitioned across workers (scale-out, matching the SPSC rings).
	Workers int
	// RingCapacity sizes each ring (power of two; default 1024).
	RingCapacity int
	// Mode selects QWAIT-style notification (default) or spin-polling.
	Mode Mode
	// Policy is the per-worker service policy in Notify mode.
	Policy hyperplane.Policy
	// Handler is the transport-processing function; nil defaults to echo.
	Handler Handler
	// BatchHandler, if set, processes each drained batch in one call
	// instead of invoking Handler per item; Handler remains the per-item
	// fallback used to replay a failed batch. See the BatchHandler type.
	BatchHandler BatchHandler
	// MaxBatch bounds how many items a worker drains from one tenant
	// queue per service turn (one PopBatch, one doorbell decrement, one
	// policy charge). 0 defaults to 32; 1 retains per-item dispatch — the
	// benchmarked baseline. StrictPriority always services per item so the
	// lowest ready QID is re-evaluated between items.
	MaxBatch int
	// SharedIngress backs the device-side queues with multi-producer
	// (MPSC) rings, so any number of goroutines may Ingress the same
	// tenant concurrently — the paper's shared-queue organization. The
	// default SPSC rings admit one producer per tenant.
	SharedIngress bool
	// Steal enables the scale-up shared-consumer organization in Notify
	// mode: all workers share ONE banked notifier (one ready-set bank per
	// worker, home bank = worker id), device-side rings become
	// multi-consumer (MPMC) so any worker may drain any tenant, and a
	// worker whose home bank is empty claims ready tenants from sibling
	// banks before parking (hyperplane.StealConfig semantics) — so idle
	// workers absorb a hot tenant's backlog instead of parking next to
	// it. Tenant-side delivery rings become multi-producer for the same
	// reason. Spin mode ignores it (the spin loop already owns its
	// partition outright).
	Steal bool
	// StealQuantum bounds how many tenant QIDs one steal claims from a
	// victim bank (default 8; see hyperplane.StealConfig.Quantum).
	StealQuantum int
	// Governor enables the elastic worker control plane: a telemetry-fed
	// loop that halts surplus workers (parking them on the striped
	// parker, the runtime analog of C1 core halting), re-grows the set on
	// backlog spikes, and autotunes MaxBatch and the EWMA policy alpha
	// from observed arrival rates. Requires a notification mode (Notify
	// or Hybrid); like Steal, it shares one banked notifier across the
	// pool so a halted worker's tenants are drained by the remaining
	// active workers. See GovernorConfig.
	Governor GovernorConfig
	// Delivery selects the tenant-side full-ring policy (default Block).
	Delivery DeliveryPolicy
	// DeliveryTimeout bounds Block per item; 0 waits until the plane
	// stops. Ignored by the drop policies.
	DeliveryTimeout time.Duration
	// Quarantine configures failing-tenant quarantine; the zero value
	// disables it.
	Quarantine QuarantineConfig
	// RestartBackoff is the supervisor's initial delay before restarting
	// a crashed worker (default 1ms); it doubles per consecutive crash up
	// to RestartBackoffMax (default 250ms).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// Durable enables the opt-in per-tenant durability tier when its Dir
	// is non-empty: ingress appends to a group-committed WAL, egress acks
	// truncate it, recovery replays un-acked items through normal
	// ingress, IngressID deduplicates producer retries, and items the
	// plane would otherwise lose land in a per-tenant dead-letter queue.
	// See DESIGN.md §12.
	Durable DurableConfig
	// OnDeliver, when non-nil, replaces the tenant-side delivery rings
	// with a synchronous egress hook: workers invoke it in-line for every
	// item that completes transport processing, and the Egress* surfaces
	// stay empty. A non-nil payload is a delivered result (the hook owns
	// fanning it out; the payload must not be retained after the call on
	// planes whose producers recycle buffers). A nil payload retires an
	// item that produced no output — handler consumed it, handler error,
	// or handler panic — so a producer attaching per-item resources via
	// IngressItem.Tag can release them exactly once per admitted item.
	// The hook runs on worker goroutines and must not block: tenant-side
	// backpressure is the hook owner's problem (the network edge applies
	// per-connection drop policies), so Delivery/DeliveryTimeout are
	// ignored. On durable planes the hook call acks the item's WAL record.
	OnDeliver func(tenant int, payload []byte, tag uint64)
	// Telemetry, when non-nil, attaches the plane to a telemetry plane:
	// per-tenant counters and ready-set/bank state become scrapeable, the
	// worker notifiers trace sampled notification latency (closed at
	// handler dispatch), and /debug/tenants shows quarantine and backlog
	// state. The telemetry plane must be sized for at least Tenants
	// tenants. Nil disables export and tracing; the plane still keeps its
	// striped counters for Stats().
	Telemetry *telemetry.T
}

// Stats is a snapshot of plane activity. The durable-tier fields
// (Replayed, Deduped, DeadLettered, DLQDepth) stay zero on in-memory
// planes; Dropped includes the persisted pre-crash base on durable
// planes, so it is monotone across crash and recovery.
type Stats struct {
	Ingressed    int64 // items accepted by Ingress (incl. replayed)
	Processed    int64 // items run through the Handler
	Delivered    int64 // items placed on tenant-side queues
	Errors       int64 // handler errors (item dropped)
	Panics       int64 // handler panics recovered (item dropped)
	Dropped      int64 // items dropped by the delivery policy
	Replayed     int64 // WAL records re-admitted after recovery
	Deduped      int64 // duplicate message ids rejected by IngressID
	DeadLettered int64 // items captured by the dead-letter queue
	Restarts     int64 // worker restarts by the supervisor
	Backlog      int   // items currently queued device-side
	OutBacklog   int   // items currently queued tenant-side
	Quarantined  int   // tenants currently quarantined (incl. probing)
	DLQDepth     int   // items currently parked in dead-letter queues
}

// Tenant quarantine states.
const (
	tsHealthy     int32 = iota
	tsQuarantined       // disabled, waiting out its backoff
	tsProbing           // re-enabled; next outcome decides
)

// tenantState is the per-tenant failure tracker. streak and state are
// atomics because the worker (handle) and the quarantine supervisor read
// them without the lock; transitions take mu.
type tenantState struct {
	streak     atomic.Int32
	state      atomic.Int32
	mu         sync.Mutex
	backoff    time.Duration
	reenableAt time.Time
}

// ForwardFunc receives the items Ingress/IngressBatch would otherwise
// have pushed onto a tenant's local device ring while a per-tenant
// forward is installed (SetTenantForward), and returns how many it
// accepted. It is the plane-level half of cluster tenant handoff: once
// installed, the tenant's new arrivals bypass the local rings entirely —
// typically into a bridge that re-encodes them for the tenant's new
// owner. The function runs on the producer's goroutine and must treat
// the payloads as borrowed: copy anything it keeps before returning
// (items staged by the network edge recycle their slab buffers as soon
// as the plane retires the item's tag, which happens immediately after
// the forward returns).
type ForwardFunc func(items []IngressItem) int

// Plane is a running software data plane.
type Plane struct {
	cfg Config

	devRings []queue.Buffer[item] // per tenant, device side (SPSC/MPSC/MPMC)
	outRings []queue.Buffer[item] // per tenant, tenant side (SPSC; MPSC under Steal)
	// fwd holds each tenant's installed forward (nil = ingest locally).
	// The local hot path pays one atomic load + nil check per
	// Ingress/run.
	fwd []atomic.Pointer[ForwardFunc]
	// tenantInflight counts items a worker is actively handling per
	// tenant (popped and inside handle/handleBatch). DrainTenant needs
	// it because Processed is charged at handler entry: counters alone
	// cannot distinguish "done" from "stuck in the handler".
	tenantInflight []atomic.Int64
	// egressScratch is each tenant's reusable EgressBatch pop buffer. The
	// delivery rings admit one consumer per tenant (outMu serializes the
	// DropOldest evictor separately), so the single-consumer contract that
	// protects the ring protects this buffer too.
	egressScratch [][]item
	// dur is the durable tier (nil on in-memory planes). See durable.go.
	dur *durable
	// shared is the resolved pool organization: Steal or Governor in a
	// notification mode. The workers then share one banked notifier (one
	// bank per worker) over MPMC device rings and drain via
	// WaitHomeBatch, so any worker can service any tenant — which is what
	// lets a halted or busy worker's tenants be picked up by the rest of
	// the pool. steal additionally enables cross-bank claiming on that
	// shared notifier.
	shared bool
	steal  bool
	// maxBatch is the live per-dispatch batch cap, MaxBatch at rest; the
	// governor retunes it from observed arrival rates.
	maxBatch atomic.Int32
	// gov is the elastic worker control plane (nil when disabled). See
	// governor.go.
	gov *govRuntime
	// outMu serializes the two tenant-side consumers that exist under
	// DropOldest (the tenant and the evicting worker); unused otherwise.
	outMu []sync.Mutex
	// planPool recycles IngressBatch's per-call NotifyBatch staging (one
	// QID run per worker), keeping batched ingress allocation-free at
	// steady state even with many concurrent producers.
	planPool sync.Pool

	workers []*worker
	tstate  []tenantState

	tenantNotifiers []*hyperplane.Notifier // one per tenant (delivery side)
	tenantQIDs      []hyperplane.QID

	// m holds the plane's activity counters as per-tenant, per-worker
	// striped grids (telemetry.Metrics); Stats() and the export plane both
	// read it merge-on-read. Unlike the old global atomics, every series
	// counts only completed effects (an item is Ingressed once its push
	// succeeded), so each counter is monotone under concurrent snapshots.
	m   *telemetry.Metrics
	tel *telemetry.T // nil = export/tracing disabled

	// ingressed/completed are Drain's bookkeeping pair: ingressed is
	// pre-counted before the push (and undone on backpressure) so Drain
	// never observes a pushed-but-uncounted item. They are internal —
	// Stats() reports the monotone grid counters instead.
	ingressed  atomic.Int64
	completed  atomic.Int64 // items fully through handle (any outcome)
	inQuar     atomic.Int64 // currently quarantined tenants
	ingressing atomic.Int64 // in-flight Ingress/IngressBatch calls

	started atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// worker owns a partition of tenant device-side queues. QID<->tenant
// routing uses dense slices: the worker registers its tenants in order,
// so its notifier QIDs are 0..len(tenants)-1 and both lookups are a
// bounds check and a load on the hot path.
type worker struct {
	id          int
	tenants     []int // tenant ids served by this worker
	n           *hyperplane.Notifier
	home        int              // home bank on the shared notifier (steal mode)
	tenantOf    []int            // notifier QID -> tenant id
	qidByTenant []hyperplane.QID // tenant id -> notifier QID (-1 = not ours)
	stop        atomic.Bool
	// pending is the unprocessed remainder of the current notify batch;
	// the supervisor re-offers it after a crash so no tenant is stranded.
	pending []hyperplane.QID
	// scratch is the reusable drain buffer one PopBatch fills per service
	// turn; payloads is the []byte view of it handed to the BatchHandler;
	// outs collects the non-nil batch-handler results for bulk delivery.
	// All live for the worker's lifetime, so the dispatch loop allocates
	// nothing per item.
	scratch  []item
	payloads [][]byte
	outs     []item
	// crashNext induces a worker-loop panic: a test hook for the
	// supervisor (handler panics are recovered in handle and never reach
	// it).
	crashNext atomic.Bool
}

// Errors returned by the Plane.
var (
	// ErrNotStarted is returned by Stop/Drain before Start.
	ErrNotStarted = errors.New("dataplane: plane not started")
	// ErrStopped is returned by Drain when the plane stopped with work
	// still queued (nothing will ever drain it).
	ErrStopped = errors.New("dataplane: plane stopped")
)

// New builds a Plane; call Start to launch the workers.
func New(cfg Config) (*Plane, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("dataplane: Tenants must be positive, got %d", cfg.Tenants)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Tenants {
		cfg.Workers = cfg.Tenants
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = 1024
	}
	if cfg.Handler == nil {
		cfg.Handler = func(_ int, payload []byte) ([]byte, error) { return payload, nil }
	}
	if cfg.Mode > Hybrid {
		return nil, fmt.Errorf("dataplane: unknown mode %d", cfg.Mode)
	}
	if cfg.Delivery > DropOldest {
		return nil, fmt.Errorf("dataplane: unknown delivery policy %d", cfg.Delivery)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("dataplane: MaxBatch must be >= 0, got %d", cfg.MaxBatch)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxBatch > cfg.RingCapacity {
		cfg.MaxBatch = cfg.RingCapacity
	}
	if cfg.Quarantine.Threshold < 0 {
		return nil, fmt.Errorf("dataplane: Quarantine.Threshold must be >= 0, got %d", cfg.Quarantine.Threshold)
	}
	if cfg.Quarantine.Threshold > 0 {
		if cfg.Quarantine.Backoff <= 0 {
			cfg.Quarantine.Backoff = 10 * time.Millisecond
		}
		if cfg.Quarantine.BackoffMax <= 0 {
			cfg.Quarantine.BackoffMax = time.Second
		}
		if cfg.Quarantine.BackoffMax < cfg.Quarantine.Backoff {
			cfg.Quarantine.BackoffMax = cfg.Quarantine.Backoff
		}
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = time.Millisecond
	}
	if cfg.RestartBackoffMax <= 0 {
		cfg.RestartBackoffMax = 250 * time.Millisecond
	}
	if cfg.RestartBackoffMax < cfg.RestartBackoff {
		cfg.RestartBackoffMax = cfg.RestartBackoff
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Tenants() < cfg.Tenants {
		return nil, fmt.Errorf("dataplane: telemetry plane sized for %d tenants, plane has %d",
			cfg.Telemetry.Tenants(), cfg.Tenants)
	}
	if cfg.StealQuantum < 0 {
		return nil, fmt.Errorf("dataplane: StealQuantum must be >= 0, got %d", cfg.StealQuantum)
	}
	if err := cfg.Governor.validate(cfg); err != nil {
		return nil, err
	}
	p := &Plane{
		cfg:            cfg,
		fwd:            make([]atomic.Pointer[ForwardFunc], cfg.Tenants),
		tenantInflight: make([]atomic.Int64, cfg.Tenants),
		tstate:         make([]tenantState, cfg.Tenants),
		outMu:          make([]sync.Mutex, cfg.Tenants),
		egressScratch:  make([][]item, cfg.Tenants),
		stopCh:         make(chan struct{}),
		m:              telemetry.NewMetrics(cfg.Tenants, cfg.Workers),
		tel:            cfg.Telemetry,
		steal:          cfg.Steal && cfg.Mode != Spin,
		shared:         (cfg.Steal || cfg.Governor.Enable) && cfg.Mode != Spin,
	}
	p.maxBatch.Store(int32(cfg.MaxBatch))

	// Egress-hook planes never touch the tenant-side rings; keep them at
	// the minimum capacity so a large RingCapacity is not paid twice.
	outCap := cfg.RingCapacity
	if cfg.OnDeliver != nil {
		outCap = 2
	}
	for t := 0; t < cfg.Tenants; t++ {
		var dr, or queue.Buffer[item]
		var err error
		switch {
		case p.shared:
			// Any worker may drain any tenant: the device ring needs
			// multiple concurrent consumers (and SharedIngress producers
			// come for free with it).
			dr, err = queue.NewMPMC[item](cfg.RingCapacity)
		case cfg.SharedIngress:
			dr, err = queue.NewMPSC[item](cfg.RingCapacity)
		default:
			dr, err = queue.NewRing[item](cfg.RingCapacity)
		}
		if err != nil {
			return nil, err
		}
		if p.shared {
			// Any worker may deliver to any tenant: the delivery ring needs
			// multiple producers. Its consumers (the tenant, plus the
			// evicting worker under DropOldest) serialize on outMu exactly
			// like the SPSC ring's DropOldest consumers do.
			or, err = queue.NewMPSC[item](outCap)
		} else {
			or, err = queue.NewRing[item](outCap)
		}
		if err != nil {
			return nil, err
		}
		p.devRings = append(p.devRings, dr)
		p.outRings = append(p.outRings, or)

		// Tenant-side notification: each tenant gets its own single-queue
		// notifier so EgressWait blocks exactly like a tenant core would
		// on its doorbell.
		tn, err := hyperplane.NewNotifier(hyperplane.NotifierConfig{MaxQueues: 1})
		if err != nil {
			return nil, err
		}
		qid, err := tn.Register(or.Doorbell())
		if err != nil {
			return nil, err
		}
		p.tenantNotifiers = append(p.tenantNotifiers, tn)
		p.tenantQIDs = append(p.tenantQIDs, qid)
	}

	// Shared-pool organization (steal and/or governor): one banked
	// notifier for the whole pool, one bank per worker (capped at
	// MaxShards). Tenants register in order, so QID == tenant and
	// bank-of-tenant == tenant mod shards — the same interleave the
	// per-worker partition uses, which makes each worker's home bank hold
	// exactly its own partition's tenants. With stealing disabled (a
	// governor-only plane), WaitHomeBatch's no-steal path falls back to a
	// full sweep across every bank, so a halted worker's tenants are
	// still drained — the governor's liveness backstop.
	var shared *hyperplane.Notifier
	var sharedTenantOf []int
	var sharedQIDs []hyperplane.QID
	if p.shared {
		sn, err := hyperplane.NewNotifier(hyperplane.NotifierConfig{
			MaxQueues: cfg.Tenants,
			Policy:    cfg.Policy,
			Shards:    cfg.Workers,
			Telemetry: cfg.Telemetry,
			Steal:     hyperplane.StealConfig{Enable: p.steal, Quantum: cfg.StealQuantum},
			Wait:      p.initialWaitConfig(),
		})
		if err != nil {
			return nil, err
		}
		sharedTenantOf = make([]int, cfg.Tenants)
		sharedQIDs = make([]hyperplane.QID, cfg.Tenants)
		for t := 0; t < cfg.Tenants; t++ {
			qid, err := sn.Register(p.devRings[t].Doorbell())
			if err != nil {
				return nil, err
			}
			sharedTenantOf[qid] = t
			sharedQIDs[t] = qid
		}
		shared = sn
	}

	// Partition tenants across workers round-robin; in Notify mode each
	// worker gets its own notifier over its partition (or, in steal mode,
	// a home bank on the shared one).
	for w := 0; w < cfg.Workers; w++ {
		wk := &worker{
			id:       w,
			scratch:  make([]item, cfg.MaxBatch),
			payloads: make([][]byte, 0, cfg.MaxBatch),
			outs:     make([]item, 0, cfg.MaxBatch),
		}
		for t := w; t < cfg.Tenants; t += cfg.Workers {
			wk.tenants = append(wk.tenants, t)
		}
		switch {
		case p.shared:
			wk.n = shared
			wk.home = w % shared.Shards()
			wk.tenantOf = sharedTenantOf
			wk.qidByTenant = sharedQIDs
		case cfg.Mode != Spin:
			n, err := hyperplane.NewNotifier(hyperplane.NotifierConfig{
				MaxQueues: len(wk.tenants),
				Policy:    cfg.Policy,
				Telemetry: cfg.Telemetry,
				Wait:      p.initialWaitConfig(),
			})
			if err != nil {
				return nil, err
			}
			wk.tenantOf = make([]int, len(wk.tenants))
			wk.qidByTenant = make([]hyperplane.QID, cfg.Tenants)
			for t := range wk.qidByTenant {
				wk.qidByTenant[t] = -1
			}
			for _, t := range wk.tenants {
				qid, err := n.Register(p.devRings[t].Doorbell())
				if err != nil {
					return nil, err
				}
				wk.tenantOf[qid] = t
				wk.qidByTenant[t] = qid
			}
			wk.n = n
		}
		p.workers = append(p.workers, wk)
	}
	nWorkers := len(p.workers)
	p.planPool = sync.Pool{New: func() any {
		return &notifyPlan{perWorker: make([][]hyperplane.QID, nWorkers)}
	}}
	if cfg.Governor.Enable {
		gov, err := newGovRuntime(cfg)
		if err != nil {
			return nil, err
		}
		p.gov = gov
	}
	// Durable tier last: wal.Open starts the group committer, so nothing
	// that can still fail may follow it.
	if cfg.Durable.Dir != "" {
		dur, err := newDurable(cfg)
		if err != nil {
			return nil, err
		}
		p.dur = dur
		// Seed the drop series with the persisted pre-crash bases so
		// Stats.Dropped (and every export surface over the grid) stays
		// monotone across crash and recovery.
		for t := range dur.tenants {
			if base := dur.tenants[t].dropped.Load(); base > 0 {
				p.m.Dropped.Add(p.m.IngressStripe(), t, int64(base))
			}
		}
	}
	if p.tel != nil {
		p.tel.AttachMetrics(p.m)
		p.tel.SetDebug(func() any { return p.DebugSnapshot() })
		p.tel.AttachCollector(p.writeRuntimeMetrics)
	}
	return p, nil
}

// Start launches the data plane workers under supervision.
func (p *Plane) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	for _, wk := range p.workers {
		p.wg.Add(1)
		go p.supervise(wk)
	}
	if p.gov != nil {
		p.wg.Add(1)
		go p.governLoop()
	}
	if p.cfg.Quarantine.Threshold > 0 {
		p.wg.Add(1)
		go p.quarantineLoop()
	}
	if p.dur != nil && len(p.dur.replay) > 0 {
		// Re-admit the recovery set through normal ingress, concurrently
		// with new traffic — the workers drain it like any other burst.
		p.wg.Add(1)
		go p.replayLoop()
	}
}

// Stop terminates the workers promptly and closes the notifiers: items
// being handled finish (including the remainder of a batch a worker has
// already drained from a device ring), queued backlog is abandoned. Use StopContext to
// bound a drain of queued work first. Stop is idempotent, and once it
// returns, Ingress and IngressBatch deterministically reject.
func (p *Plane) Stop() error {
	if !p.started.Load() {
		return ErrNotStarted
	}
	if !p.stopped.CompareAndSwap(false, true) {
		return nil
	}
	close(p.stopCh)
	// Let in-flight Ingress/IngressBatch calls finish before closing the
	// worker notifiers they may be about to Notify.
	for p.ingressing.Load() != 0 {
		runtime.Gosched()
	}
	for _, wk := range p.workers {
		wk.stop.Store(true)
		if wk.n != nil {
			wk.n.Close() // wake blocked QWAITs
		}
	}
	p.wg.Wait()
	for _, tn := range p.tenantNotifiers {
		tn.Close()
	}
	if p.dur != nil {
		// Final group commit: every ack taken before Stop is persisted, so
		// a clean shutdown replays nothing that was consumed.
		return p.dur.log.Close()
	}
	return nil
}

// Stopped reports whether Stop has begun: once true, Ingress and
// IngressBatch deterministically reject, so producers retrying on
// backpressure can tell a full ring from a dead plane.
func (p *Plane) Stopped() bool { return p.stopped.Load() }

// StopContext drains queued work until ctx expires, then stops the plane
// regardless. It returns the drain error (nil when the plane emptied in
// time) — the plane is stopped either way.
func (p *Plane) StopContext(ctx context.Context) error {
	err := p.Drain(ctx)
	if stopErr := p.Stop(); stopErr != nil && err == nil {
		err = stopErr
	}
	return err
}

// Drain blocks until every item accepted by Ingress has fully passed
// through the plane (delivered, dropped, or rejected by the handler) or
// ctx is done. Quarantined tenants hold their backlog until re-probed, so
// a drain during quarantine only completes once the probe succeeds — bound
// it with ctx.
func (p *Plane) Drain(ctx context.Context) error {
	if !p.started.Load() {
		return ErrNotStarted
	}
	for {
		// ingressed is incremented before an item becomes visible to
		// workers (and decremented on push failure), so equality with
		// completed means no hidden in-flight work. Recovery replay counts
		// as pending until every record is re-admitted.
		if p.ingressing.Load() == 0 && p.completed.Load() == p.ingressed.Load() &&
			(p.dur == nil || p.dur.replayPending.Load() == 0) {
			return nil
		}
		if p.stopped.Load() {
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// SetTenantForward installs (or, with nil, clears) a per-tenant forward:
// while set, Ingress and IngressBatch hand the tenant's new arrivals to
// fn instead of the local rings. Items already queued locally are not
// affected — pair with DrainTenant to flush them before completing a
// handoff. Concurrent producers may race the installation; an Ingress
// call that loaded the pre-swap nil can still push locally immediately
// after SetTenantForward returns, which DrainTenant's settling loop
// absorbs.
func (p *Plane) SetTenantForward(tenant int, fn ForwardFunc) error {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return fmt.Errorf("dataplane: tenant %d out of range [0,%d)", tenant, p.cfg.Tenants)
	}
	if fn == nil {
		p.fwd[tenant].Store(nil)
		return nil
	}
	p.fwd[tenant].Store(&fn)
	return nil
}

// forwardRun hands a same-tenant run to an installed forward and retires
// the accepted items' tags: the remote owner delivers the payloads, but
// tag-attached resources (edge slab references) live on this node and
// must be released here, exactly as if the item had been admitted and
// dropped by policy. The forward copies synchronously, so the tags are
// safe to release as soon as it returns. Unaccepted items keep their
// tags — the producer still owns them, mirroring IngressBatch's
// contract for dropped items.
func (p *Plane) forwardRun(fn ForwardFunc, items []IngressItem) int {
	pushed := fn(items)
	if pushed > len(items) {
		pushed = len(items)
	}
	for k := 0; k < pushed; k++ {
		if items[k].Tag != 0 {
			p.retire(items[k].Tenant, item{tag: items[k].Tag})
		}
	}
	return pushed
}

// DrainTenant blocks until one tenant's ingress side looks settled —
// device ring empty and the tenant's processed counter caught up with
// its ingressed counter, observed stable across two consecutive polls —
// or ctx is done. It is the per-tenant analogue of Drain's
// counter-settling loop, used by cluster handoff: install the forward,
// drain the tenant, then transfer ownership. Items already delivered to
// the out ring stay available to Egress (handoff moves ingress
// ownership, not unconsumed egress). The double poll bridges the window
// where a worker has popped an item but not yet finished its handler;
// like Drain, a quarantined tenant only settles once its probe
// succeeds, so bound the call with ctx.
func (p *Plane) DrainTenant(ctx context.Context, tenant int) error {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return fmt.Errorf("dataplane: tenant %d out of range [0,%d)", tenant, p.cfg.Tenants)
	}
	if !p.started.Load() {
		return ErrNotStarted
	}
	settled := false
	for {
		if p.stopped.Load() {
			return ErrStopped
		}
		c := p.m.TenantCounts(tenant)
		idle := p.devRings[tenant].Len() == 0 &&
			p.tenantInflight[tenant].Load() == 0 &&
			c.Processed >= c.Ingressed
		if idle && settled {
			return nil
		}
		settled = idle
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// TenantBacklog reports one tenant's current queue occupancy (device
// ring, out ring) — the cluster layer polls it to size handoff waits.
func (p *Plane) TenantBacklog(tenant int) (device, out int) {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return 0, 0
	}
	return p.devRings[tenant].Len(), p.outRings[tenant].Len()
}

// Ingress places a work item on a tenant's device-side queue (the emulated
// NIC's DMA + doorbell). It returns false on backpressure (ring full),
// invalid tenant, or a stopped plane; after Stop returns it always returns
// false and never touches the closed notifiers.
func (p *Plane) Ingress(tenant int, payload []byte) bool {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return false
	}
	if fnp := p.fwd[tenant].Load(); fnp != nil {
		one := [1]IngressItem{{Tenant: tenant, Payload: payload}}
		return p.forwardRun(*fnp, one[:]) == 1
	}
	if p.dur != nil {
		// Durable planes route every admission through the WAL path;
		// plain Ingress items are anonymous (no dedup).
		return p.ingressDurable(tenant, 0, payload) == IngressAccepted
	}
	p.ingressing.Add(1)
	defer p.ingressing.Add(-1)
	if p.stopped.Load() {
		return false
	}
	// Count before the push so Drain never sees a pushed-but-uncounted
	// item; undo on backpressure.
	p.ingressed.Add(1)
	if !p.devRings[tenant].Push(item{payload: payload}) {
		p.ingressed.Add(-1)
		return false
	}
	p.m.Ingressed.Add(p.m.IngressStripe(), tenant, 1)
	if p.cfg.Mode != Spin {
		w := p.workers[tenant%p.cfg.Workers]
		w.n.Notify(w.qidByTenant[tenant])
	}
	return true
}

// IngressItem pairs a tenant with a payload for batch ingress. Tag is an
// opaque per-item cookie handed back to Config.OnDeliver when the item
// is delivered or retired (0 = untagged); planes without an egress hook
// ignore it.
type IngressItem struct {
	Tenant  int
	Payload []byte
	Tag     uint64
}

// notifyPlan is IngressBatch's reusable NotifyBatch staging: the QIDs to
// ring per worker, pooled via planPool so the batch path allocates
// nothing at steady state.
type notifyPlan struct {
	perWorker [][]hyperplane.QID
}

// runPool recycles IngressBatch's bulk-push staging buffers. The buffer
// escapes through the Buffer interface call, so a plain local would
// allocate per call; pooling keeps batched ingress allocation-free at
// steady state even with many concurrent producers.
var runPool = sync.Pool{New: func() any { return new([64]item) }}

// IngressBatch places a burst of work items in one call (the emulated
// device's batched DMA + coalesced doorbells): payloads are pushed first
// and each worker's doorbells are rung once via NotifyBatch, amortizing
// waiter wakeups across the burst. It returns the number of items
// accepted; items for invalid tenants or full rings are dropped, like
// Ingress. After Stop returns it deterministically accepts nothing.
func (p *Plane) IngressBatch(items []IngressItem) int {
	return p.ingressBatch(items, nil)
}

// IngressBatchRejected is IngressBatch for a caller that must know WHICH
// items of a mixed-tenant batch were refused (the cluster bridge
// remembers a message id only once its item is in the plane): the
// indexes of the refused items are appended to rejected in ascending
// order, and the accepted count is returned with it.
func (p *Plane) IngressBatchRejected(items []IngressItem, rejected []int) (int, []int) {
	n := p.ingressBatch(items, &rejected)
	return n, rejected
}

// ingressBatch is the one batched push loop. Every same-tenant run is
// accepted as a prefix, so with rej set the refused items of a run are
// exactly its tail.
func (p *Plane) ingressBatch(items []IngressItem, rej *[]int) int {
	p.ingressing.Add(1)
	defer p.ingressing.Add(-1)
	if p.stopped.Load() {
		refuse(rej, 0, len(items))
		return 0
	}
	// Over-count up front (see Ingress) and settle after the loop.
	p.ingressed.Add(int64(len(items)))
	var plan *notifyPlan
	var perWorker [][]hyperplane.QID
	if p.cfg.Mode != Spin {
		plan = p.planPool.Get().(*notifyPlan)
		perWorker = plan.perWorker
	}
	accepted := 0  // pushed onto local rings (counted in ingressed)
	forwarded := 0 // handed to per-tenant forwards (owned remotely)
	run := runPool.Get().(*[64]item)
	defer func() {
		clear(run[:]) // release payload references before pooling
		runPool.Put(run)
	}()
	for i := 0; i < len(items); {
		tenant := items[i].Tenant
		j := i + 1
		for j < len(items) && items[j].Tenant == tenant {
			j++
		}
		if tenant < 0 || tenant >= p.cfg.Tenants {
			refuse(rej, i, j)
			i = j
			continue
		}
		if fnp := p.fwd[tenant].Load(); fnp != nil {
			// Forwarded runs never touch the local rings or counters:
			// the remote owner ingresses (and counts) them, so they are
			// excluded from this plane's ingressed/completed balance —
			// Drain must not wait for work that completes elsewhere.
			sent := p.forwardRun(*fnp, items[i:j])
			forwarded += sent
			refuse(rej, i+sent, j)
			i = j
			continue
		}
		pushed := 0
		switch {
		case p.dur != nil:
			// Durable runs assign seqs and append WAL records under one
			// admission-mutex hold per run — the durable bulk path.
			pushed = p.ingressBatchDurable(tenant, items[i:j], run)
		case j-i == 1:
			if p.devRings[tenant].Push(item{payload: items[i].Payload, tag: items[i].Tag}) {
				pushed = 1
			}
		default:
			// Same-tenant run: bulk-push in chunks, paying one cursor
			// publish and one doorbell increment per chunk instead of per
			// item. A short PushBatch means the ring is full; the rest of
			// the run is dropped like per-item Ingress would drop it.
			for off := i; off < j; {
				c := j - off
				if c > len(run) {
					c = len(run)
				}
				for k := 0; k < c; k++ {
					run[k] = item{payload: items[off+k].Payload, tag: items[off+k].Tag}
				}
				got := p.devRings[tenant].PushBatch(run[:c])
				pushed += got
				off += got
				if got < c {
					break
				}
			}
		}
		accepted += pushed
		refuse(rej, i+pushed, j)
		if pushed > 0 {
			p.m.Ingressed.Add(p.m.IngressStripe(), tenant, int64(pushed))
		}
		if pushed > 0 && perWorker != nil {
			// One entry per run suffices: NotifyBatch activations coalesce
			// duplicates of the same QID anyway.
			w := tenant % p.cfg.Workers
			perWorker[w] = append(perWorker[w], p.workers[w].qidByTenant[tenant])
		}
		i = j
	}
	if accepted != len(items) {
		p.ingressed.Add(int64(accepted - len(items)))
	}
	for w, qids := range perWorker {
		if len(qids) > 0 {
			p.workers[w].n.NotifyBatch(qids)
		}
	}
	if plan != nil {
		for w := range perWorker {
			perWorker[w] = perWorker[w][:0]
		}
		p.planPool.Put(plan)
	}
	return accepted + forwarded
}

// refuse records items[from:to) as refused for IngressBatchRejected; a
// nil rej (plain IngressBatch) or an empty range is a no-op.
func refuse(rej *[]int, from, to int) {
	if rej == nil {
		return
	}
	for k := from; k < to; k++ {
		*rej = append(*rej, k)
	}
}

// popOut dequeues from a tenant-side ring. Under DropOldest the ring has
// two competing consumers (the tenant and the evicting worker), so pops
// serialize on the tenant's mutex; every other policy keeps the lock-free
// SPSC fast path.
func (p *Plane) popOut(tenant int) (item, bool) {
	if p.cfg.Delivery == DropOldest {
		p.outMu[tenant].Lock()
		v, ok := p.outRings[tenant].Pop()
		p.outMu[tenant].Unlock()
		return v, ok
	}
	return p.outRings[tenant].Pop()
}

// Egress pops one processed item from a tenant's delivery queue without
// blocking. On a durable plane the pop acks the item's WAL record — the
// consumption watermark persists at the next group commit.
func (p *Plane) Egress(tenant int) ([]byte, bool) {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return nil, false
	}
	v, ok := p.popOut(tenant)
	if ok {
		p.ackItem(tenant, v)
		p.tenantNotifiers[tenant].Reconsider(p.tenantQIDs[tenant])
	}
	return v.payload, ok
}

// EgressBatch pops up to len(dst) processed items from a tenant's
// delivery queue without blocking — one doorbell decrement and one
// notifier round-trip for the whole batch. It returns the number popped.
// On a durable plane each popped item's WAL record is acked.
func (p *Plane) EgressBatch(tenant int, dst [][]byte) int {
	if tenant < 0 || tenant >= p.cfg.Tenants || len(dst) == 0 {
		return 0
	}
	sc := p.egressScratch[tenant]
	if cap(sc) < len(dst) {
		sc = make([]item, len(dst))
		p.egressScratch[tenant] = sc
	}
	sc = sc[:len(dst)]
	var n int
	if p.cfg.Delivery == DropOldest {
		p.outMu[tenant].Lock()
		n = p.outRings[tenant].PopBatch(sc)
		p.outMu[tenant].Unlock()
	} else {
		n = p.outRings[tenant].PopBatch(sc)
	}
	for i := 0; i < n; i++ {
		dst[i] = sc[i].payload
		p.ackItem(tenant, sc[i])
	}
	clear(sc[:n]) // release payload references
	if n > 0 {
		p.tenantNotifiers[tenant].Reconsider(p.tenantQIDs[tenant])
	}
	return n
}

// EgressWait blocks until an item is available for the tenant (the tenant
// core's own QWAIT) or the plane stops.
func (p *Plane) EgressWait(tenant int) ([]byte, bool) {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return nil, false
	}
	tn := p.tenantNotifiers[tenant]
	qid := p.tenantQIDs[tenant]
	for {
		if _, ok := tn.Wait(); !ok {
			// Closed: drain any remaining item without blocking.
			v, got := p.popOut(tenant)
			if got {
				p.ackItem(tenant, v)
			}
			return v.payload, got
		}
		v, ok := p.popOut(tenant)
		tn.Consume(qid)
		if ok {
			p.ackItem(tenant, v)
			return v.payload, true
		}
	}
}

// supervise runs a worker until clean exit, restarting it after crashes
// with capped exponential backoff — the plane degrades rather than
// silently orphaning the worker's whole tenant partition.
func (p *Plane) supervise(wk *worker) {
	defer p.wg.Done()
	backoff := p.cfg.RestartBackoff
	for {
		if p.runWorker(wk) {
			return // clean exit (plane stopping)
		}
		p.m.Restarts.Add(1)
		select {
		case <-p.stopCh:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > p.cfg.RestartBackoffMax {
			backoff = p.cfg.RestartBackoffMax
		}
	}
}

// runWorker executes one worker incarnation, converting a panic anywhere
// in the loop into a restartable crash. Notify-mode batch entries not yet
// processed are re-offered to the notifier so their tenants are not
// stranded with activated-but-unserviced queues.
func (p *Plane) runWorker(wk *worker) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			for _, qid := range wk.pending {
				wk.n.Consume(qid)
			}
			wk.pending = nil
		}
	}()
	if p.cfg.Mode != Spin {
		p.runNotify(wk)
	} else {
		p.runSpin(wk)
	}
	return true
}

// runNotify is the QWAIT worker loop (Algorithm 1 of the paper), batched
// end to end: WaitBatch drains several ready queues per wakeup, each ready
// queue is drained with one PopBatch into the worker's reusable scratch
// buffer (one doorbell decrement, zero allocations), and ConsumeN bills
// the policy the real batch size before re-arming.
func (p *Plane) runNotify(wk *worker) {
	// Strict priority must re-evaluate the lowest ready QID after every
	// item, so it gets a wait batch of one (see Notifier.WaitBatch docs)
	// and a drain of one item per turn.
	size := 32
	strict := p.cfg.Policy.Kind == hyperplane.StrictPriority.Kind
	if strict {
		size = 1
	}
	batch := make([]hyperplane.QID, size)
	for {
		if p.gov != nil {
			// Halt gate: a worker shrunk out of the active set blocks here
			// (the C1 drop) until the governor re-admits it or the plane
			// stops. Its tenants keep flowing through the shared notifier.
			p.gov.gate(p, wk)
		}
		if wk.crashNext.CompareAndSwap(true, false) {
			panic("dataplane: induced worker crash")
		}
		// The drain bound is re-read per turn: the governor retunes it live
		// from the observed arrival rate.
		drain := 1
		if !strict {
			drain = int(p.maxBatch.Load())
		}
		var c int
		if p.shared {
			// Home bank first; then, with stealing on, claim from a hot
			// sibling before parking (ConsumeN routes a stolen tenant's
			// batch charge back to its victim bank automatically), or, with
			// stealing off, fall back to a full sweep across every bank.
			c = wk.n.WaitHomeBatch(wk.home, batch)
		} else {
			c = wk.n.WaitBatch(batch)
		}
		if c == 0 {
			return // notifier closed by Stop
		}
		wk.pending = batch[:c]
		for len(wk.pending) > 0 {
			qid := wk.pending[0]
			if !p.shared {
				wk.pending = wk.pending[1:]
			}
			tenant := wk.tenantOf[qid]
			// Handler dispatch: close the sampled notification span opened
			// at Notify time. TakeStamp is a constant 0 (one nil check)
			// when telemetry is disabled.
			if ts := wk.n.TakeStamp(qid); ts != 0 {
				p.tel.RecordNotify(wk.id, tenant, int(qid), ts, time.Now().UnixNano())
			}
			if drain == 1 && !p.shared {
				it, got := p.devRings[tenant].Pop()
				wk.n.Consume(qid)
				if got {
					p.tenantInflight[tenant].Add(1)
					p.handle(wk, tenant, it)
					p.tenantInflight[tenant].Add(-1)
				}
				continue
			}
			n := p.devRings[tenant].PopBatch(wk.scratch[:p.drainBound(tenant, drain)])
			if !p.shared {
				wk.n.ConsumeN(qid, n)
			}
			if n > 0 {
				p.handleBatch(wk, tenant, wk.scratch[:n])
				clear(wk.scratch[:n]) // release payload references
			}
			if p.shared {
				// In-service discipline: on a shared notifier Consume
				// re-activates a still-backlogged tenant for EVERY worker,
				// so it waits until the batch is delivered — otherwise a
				// sibling can select the tenant, pop the next batch and
				// deliver it first, breaking per-tenant FIFO. The QID stays
				// in pending until then, so the crash path re-offers it.
				wk.n.ConsumeN(qid, n)
				wk.pending = wk.pending[1:]
			}
		}
	}
}

// runSpin is the baseline loop: iterate over owned tenants at full tilt,
// skipping quarantined ones.
func (p *Plane) runSpin(wk *worker) {
	idle := 0
	for !wk.stop.Load() {
		if wk.crashNext.CompareAndSwap(true, false) {
			panic("dataplane: induced worker crash")
		}
		found := false
		for _, tenant := range wk.tenants {
			if p.cfg.Quarantine.Threshold > 0 && p.tstate[tenant].state.Load() == tsQuarantined {
				continue
			}
			if p.cfg.MaxBatch == 1 {
				it, got := p.devRings[tenant].Pop()
				if !got {
					continue
				}
				found = true
				p.tenantInflight[tenant].Add(1)
				p.handle(wk, tenant, it)
				p.tenantInflight[tenant].Add(-1)
				continue
			}
			n := p.devRings[tenant].PopBatch(wk.scratch[:p.drainBound(tenant, p.cfg.MaxBatch)])
			if n == 0 {
				continue
			}
			found = true
			p.handleBatch(wk, tenant, wk.scratch[:n])
			clear(wk.scratch[:n])
		}
		if !found {
			idle++
			if idle > 64 {
				// Stay honest to "spinning" while not starving the other
				// goroutines of this test process.
				runtime.Gosched()
			}
		} else {
			idle = 0
		}
	}
}

// drainBound caps a service turn's batch for unhealthy tenants: a tenant
// under quarantine (or being probed) gets exactly one item, so a single
// handler outcome decides recovery vs re-quarantine — identical to
// per-item dispatch, where QWAIT-DISABLE fires before a second item can
// be popped. Healthy tenants drain the full configured batch.
func (p *Plane) drainBound(tenant, drain int) int {
	if p.cfg.Quarantine.Threshold > 0 && p.tstate[tenant].state.Load() != tsHealthy {
		return 1
	}
	return drain
}

// handleBatch services one drained batch. Without a BatchHandler (or for
// a batch of one) it runs the per-item path for every element, preserving
// per-item semantics exactly — the batch still won its single PopBatch,
// doorbell decrement, and policy charge. With a BatchHandler, a clean
// batch is accounted and delivered wholesale; a failed batch attempt
// (error or panic) is not counted at all and instead replays item by item
// through handle, so only the poisoned item is dropped and every counter
// (Processed, Errors, Panics, Dropped, quarantine streaks) lands exactly
// where per-item dispatch would put it.
func (p *Plane) handleBatch(wk *worker, tenant int, batch []item) {
	// Held across the whole batch: one counter update per batch, not per
	// item, and it covers the per-item and replay handle calls below
	// (handle itself does not count — its direct dispatch-loop callers
	// do).
	p.tenantInflight[tenant].Add(int64(len(batch)))
	defer p.tenantInflight[tenant].Add(-int64(len(batch)))
	if p.cfg.BatchHandler == nil || len(batch) == 1 {
		for i := range batch {
			p.handle(wk, tenant, batch[i])
		}
		return
	}
	// The BatchHandler sees the payload view; seqs and message ids stay
	// with the items, so results rejoin their WAL identity below.
	payloads := wk.payloads[:0]
	for i := range batch {
		payloads = append(payloads, batch[i].payload)
	}
	if !p.runBatchHandler(tenant, payloads) {
		// Replay from the view slice: a failed attempt may have replaced
		// some entries in place (its contract allows it for items it DID
		// process), and those results must not be re-processed.
		for i := range batch {
			it := batch[i]
			it.payload = payloads[i]
			p.handle(wk, tenant, it)
		}
		clear(payloads)
		return
	}
	p.m.Processed.Add(wk.id, tenant, int64(len(batch)))
	p.noteSuccess(tenant)
	outs := wk.outs[:0]
	for i := range batch {
		if payloads[i] != nil {
			outs = append(outs, item{seq: batch[i].seq, msgID: batch[i].msgID, payload: payloads[i], tag: batch[i].tag})
		} else {
			// The handler consumed the item without output: that is a
			// completed consumption, so the WAL record is acked.
			p.ackItem(tenant, batch[i])
			p.retire(tenant, batch[i])
		}
	}
	p.deliverBatch(wk, tenant, outs)
	clear(outs)
	clear(payloads)
	p.completed.Add(int64(len(batch)))
}

// runBatchHandler runs the BatchHandler with panic isolation, reporting
// whether the batch attempt succeeded. Failures are not counted here: the
// per-item replay that follows attributes errors and panics to the exact
// items that cause them.
func (p *Plane) runBatchHandler(tenant int, payloads [][]byte) (committed bool) {
	defer func() {
		if r := recover(); r != nil {
			committed = false
		}
	}()
	return p.cfg.BatchHandler(tenant, payloads) == nil
}

// handle runs transport processing and delivers to the tenant side.
// Failed items (error or panic) are dead-lettered on durable planes —
// including the failures that exhaust a quarantine streak — instead of
// vanishing; a nil handler result is a completed consumption and acks.
func (p *Plane) handle(wk *worker, tenant int, it item) {
	p.m.Processed.Add(wk.id, tenant, 1)
	defer p.completed.Add(1)
	out, err, panicked := p.runHandler(tenant, it.payload)
	if panicked {
		p.m.Panics.Add(wk.id, tenant, 1)
		p.noteFailure(tenant)
		p.deadLetter(wk.id, tenant, it, ReasonHandlerPanic)
		p.retire(tenant, it)
		return
	}
	if err != nil {
		p.m.Errors.Add(wk.id, tenant, 1)
		p.noteFailure(tenant)
		p.deadLetter(wk.id, tenant, it, ReasonHandlerError)
		p.retire(tenant, it)
		return
	}
	p.noteSuccess(tenant)
	if out == nil {
		p.ackItem(tenant, it)
		p.retire(tenant, it)
		return
	}
	it.payload = out
	p.deliver(wk, tenant, it)
}

// retire reports an item that completed without delivery to the egress
// hook (nil payload), so hook owners can release per-item resources
// attached via IngressItem.Tag exactly once per admitted item. No-op
// without a hook.
func (p *Plane) retire(tenant int, it item) {
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(tenant, nil, it.tag)
	}
}

// runHandler isolates a handler panic to the item that caused it: the
// panic is recovered, counted in Stats.Panics, and fed to the quarantine
// tracker instead of killing the worker goroutine.
func (p *Plane) runHandler(tenant int, payload []byte) (out []byte, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			out, err, panicked = nil, nil, true
		}
	}()
	out, err = p.cfg.Handler(tenant, payload)
	return out, err, false
}

// deliver pushes a processed item to the tenant-side ring under the
// configured delivery policy and rings the tenant's doorbell. Every
// drop path routes through dropItem, so drop-policy victims are charged
// once and, on durable planes, dead-lettered exactly once. With an
// egress hook the ring is bypassed entirely: the hook is invoked
// in-line (it owns tenant-side backpressure) and the item is acked.
func (p *Plane) deliver(wk *worker, tenant int, out item) {
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(tenant, out.payload, out.tag)
		p.m.Delivered.Add(wk.id, tenant, 1)
		p.ackItem(tenant, out)
		return
	}
	r := p.outRings[tenant]
	if !r.Push(out) {
		switch p.cfg.Delivery {
		case DropNewest:
			p.dropItem(wk.id, tenant, out, ReasonDropNewest)
			return
		case DropOldest:
			mu := &p.outMu[tenant]
			mu.Lock()
			var victim item
			var evicted bool
			if !r.Push(out) {
				victim, evicted = r.Pop()
				if !r.Push(out) {
					// Cannot happen with capacity >= 2 and a single
					// producer, but never wedge the worker over it.
					mu.Unlock()
					if evicted {
						p.dropItem(wk.id, tenant, victim, ReasonDropOldest)
					}
					p.dropItem(wk.id, tenant, out, ReasonDropOldest)
					return
				}
			}
			mu.Unlock()
			if evicted {
				p.dropItem(wk.id, tenant, victim, ReasonDropOldest)
			}
		default: // Block
			var deadline time.Time
			if p.cfg.DeliveryTimeout > 0 {
				deadline = time.Now().Add(p.cfg.DeliveryTimeout)
			}
			for !r.Push(out) {
				if p.stopped.Load() {
					p.dropItem(wk.id, tenant, out, ReasonStopDrop)
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					p.dropItem(wk.id, tenant, out, ReasonDeliveryTimeout)
					return
				}
				runtime.Gosched() // tenant-side backpressure
			}
		}
	}
	p.m.Delivered.Add(wk.id, tenant, 1)
	p.tenantNotifiers[tenant].Notify(p.tenantQIDs[tenant])
}

// deliverBatch pushes a batch of processed items to the tenant-side ring:
// whatever fits lands via one bulk copy, one doorbell increment, and one
// notify; the remainder goes through the per-item delivery policy. The
// bulk push is safe under every policy — the worker is the ring's only
// producer (in steal mode the ring is MPSC, so several stealing workers
// may produce concurrently), and DropOldest's competing consumers
// serialize on the tenant's mutex against each other, not against the
// producers.
func (p *Plane) deliverBatch(wk *worker, tenant int, outs []item) {
	if len(outs) == 0 {
		return
	}
	if p.cfg.OnDeliver != nil {
		for i := range outs {
			p.cfg.OnDeliver(tenant, outs[i].payload, outs[i].tag)
			p.ackItem(tenant, outs[i])
		}
		p.m.Delivered.Add(wk.id, tenant, int64(len(outs)))
		return
	}
	n := p.outRings[tenant].PushBatch(outs)
	if n > 0 {
		p.m.Delivered.Add(wk.id, tenant, int64(n))
		p.tenantNotifiers[tenant].Notify(p.tenantQIDs[tenant])
	}
	for _, out := range outs[n:] {
		p.deliver(wk, tenant, out) // full ring: apply the delivery policy
	}
}

// noteSuccess resets the tenant's failure streak and, if the success came
// from a quarantine probe, lifts the quarantine.
func (p *Plane) noteSuccess(tenant int) {
	if p.cfg.Quarantine.Threshold <= 0 {
		return
	}
	ts := &p.tstate[tenant]
	if ts.streak.Load() != 0 {
		ts.streak.Store(0)
	}
	if ts.state.Load() != tsProbing {
		return
	}
	ts.mu.Lock()
	if ts.state.Load() != tsProbing {
		ts.mu.Unlock()
		return
	}
	ts.state.Store(tsHealthy)
	ts.backoff = 0
	ts.mu.Unlock()
	p.inQuar.Add(-1)
}

// noteFailure advances the tenant's failure streak; at the threshold the
// tenant is quarantined (QWAIT-DISABLE), and a failure during a probe
// re-quarantines with doubled backoff.
func (p *Plane) noteFailure(tenant int) {
	q := p.cfg.Quarantine
	if q.Threshold <= 0 {
		return
	}
	ts := &p.tstate[tenant]
	streak := ts.streak.Add(1)
	switch ts.state.Load() {
	case tsHealthy:
		if int(streak) < q.Threshold {
			return
		}
		ts.mu.Lock()
		if ts.state.Load() != tsHealthy {
			ts.mu.Unlock()
			return
		}
		ts.backoff = q.Backoff
		ts.reenableAt = time.Now().Add(ts.backoff)
		ts.state.Store(tsQuarantined)
		ts.mu.Unlock()
		p.inQuar.Add(1)
		p.setTenantEnabled(tenant, false)
	case tsProbing:
		ts.mu.Lock()
		if ts.state.Load() != tsProbing {
			ts.mu.Unlock()
			return
		}
		ts.backoff *= 2
		if ts.backoff > q.BackoffMax {
			ts.backoff = q.BackoffMax
		}
		ts.reenableAt = time.Now().Add(ts.backoff)
		ts.state.Store(tsQuarantined)
		ts.mu.Unlock()
		p.setTenantEnabled(tenant, false)
	}
}

// setTenantEnabled flips the tenant's QWAIT-ENABLE/DISABLE bit on its
// worker's notifier (Notify mode; the spin loop checks the state word
// directly). Readiness keeps accruing while disabled, so re-enabling a
// backlogged tenant immediately reoffers it to QWAIT.
func (p *Plane) setTenantEnabled(tenant int, enabled bool) {
	if p.cfg.Mode == Spin {
		return
	}
	wk := p.workers[tenant%p.cfg.Workers]
	if enabled {
		_ = wk.n.Enable(wk.qidByTenant[tenant])
	} else {
		_ = wk.n.Disable(wk.qidByTenant[tenant])
	}
}

// quarantineLoop is the plane's quarantine supervisor: it re-probes
// quarantined tenants whose backoff has elapsed by re-enabling them; the
// first handler outcome after the probe decides recovery vs re-quarantine
// (with doubled backoff).
func (p *Plane) quarantineLoop() {
	defer p.wg.Done()
	tick := p.cfg.Quarantine.Backoff / 4
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	if tick > 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
		}
		now := time.Now()
		for tn := range p.tstate {
			ts := &p.tstate[tn]
			if ts.state.Load() != tsQuarantined {
				continue
			}
			ts.mu.Lock()
			if ts.state.Load() == tsQuarantined && !now.Before(ts.reenableAt) {
				ts.state.Store(tsProbing)
				ts.mu.Unlock()
				p.setTenantEnabled(tn, true)
			} else {
				ts.mu.Unlock()
			}
		}
	}
}

// Stats returns a snapshot of plane counters, merged on read from the
// per-tenant, per-worker telemetry grids. Every counter field is
// monotone non-decreasing across concurrent snapshots (Ingressed counts
// an item only once its ring push succeeded).
func (p *Plane) Stats() Stats {
	backlog := 0
	for _, r := range p.devRings {
		backlog += r.Len()
	}
	outBacklog := 0
	for _, r := range p.outRings {
		outBacklog += r.Len()
	}
	dlqDepth := 0
	if p.dur != nil {
		for t := range p.dur.tenants {
			dlqDepth += p.DLQDepth(t)
		}
	}
	snap := p.m.Snapshot()
	return Stats{
		Ingressed:    snap.Totals.Ingressed,
		Processed:    snap.Totals.Processed,
		Delivered:    snap.Totals.Delivered,
		Errors:       snap.Totals.Errors,
		Panics:       snap.Totals.Panics,
		Dropped:      snap.Totals.Dropped,
		Replayed:     snap.Totals.Replayed,
		Deduped:      snap.Totals.Deduped,
		DeadLettered: snap.Totals.DeadLettered,
		Restarts:     snap.Restarts,
		Backlog:      backlog,
		OutBacklog:   outBacklog,
		Quarantined:  int(p.inQuar.Load()),
		DLQDepth:     dlqDepth,
	}
}

// TenantStats returns one tenant's counter snapshot (merged on read).
func (p *Plane) TenantStats(tenant int) telemetry.TenantCounts {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return telemetry.TenantCounts{}
	}
	return p.m.TenantCounts(tenant)
}

// Telemetry returns the telemetry plane the Plane was configured with
// (nil when export/tracing is disabled).
func (p *Plane) Telemetry() *telemetry.T { return p.tel }

// tenantStateName renders a tenant's quarantine state for /debug/tenants.
func (p *Plane) tenantStateName(tenant int) string {
	if p.cfg.Quarantine.Threshold <= 0 {
		return "healthy"
	}
	switch p.tstate[tenant].state.Load() {
	case tsQuarantined:
		return "quarantined"
	case tsProbing:
		return "probing"
	}
	return "healthy"
}

// DebugSnapshot builds the /debug/tenants payload: per-tenant runtime
// state (quarantine, ring occupancy, counters, latency) and per-worker
// notifier internals (bank occupancy, park/wake counters, arbitration
// state via the policy.Inspect hook). In the worker sections, vector
// entries of the policy state are mapped through each bank's QIDs back
// to tenant ids.
func (p *Plane) DebugSnapshot() telemetry.DebugSnapshot {
	snap := telemetry.DebugSnapshot{
		Mode:    p.ModeString(),
		Tenants: make([]telemetry.TenantDebug, p.cfg.Tenants),
	}
	for t := 0; t < p.cfg.Tenants; t++ {
		snap.Tenants[t] = telemetry.TenantDebug{
			Tenant:     t,
			State:      p.tenantStateName(t),
			Backlog:    p.devRings[t].Len(),
			OutBacklog: p.outRings[t].Len(),
			Counts:     p.m.TenantCounts(t),
			Latency:    p.tel.TenantLatency(t).Summary(),
		}
		if p.dur != nil {
			snap.Tenants[t].DLQDepth = p.DLQDepth(t)
			snap.Tenants[t].AckedSeq = p.AckedSeq(t)
			snap.Tenants[t].DurableSeq = p.DurableSeq(t)
		}
	}
	if p.cfg.Mode == Spin {
		return snap
	}
	park := p.workerParkSeconds()
	active := int32(len(p.workers))
	if p.gov != nil {
		active = p.gov.active.Load()
	}
	for _, wk := range p.workers {
		wd := telemetry.WorkerDebug{
			Worker:      wk.id,
			Active:      int32(wk.id) < active,
			ParkSeconds: park[wk.id],
		}
		// Bank sections come only from the reporting set (worker 0 alone
		// in the shared organization — its notifier holds every bank).
		if !p.shared || wk.id == 0 {
			banks := wk.n.BankStats()
			insps := wk.n.InspectPolicy()
			wd.Banks = make([]telemetry.BankDebug, len(banks))
			for i, b := range banks {
				pd := telemetry.PolicyDebug{}
				if i < len(insps) {
					in := insps[i]
					tenants := make([]int, len(in.QIDs))
					for j, q := range in.QIDs {
						tenants[j] = wk.tenantOf[q]
					}
					pd = telemetry.PolicyDebug{
						Kind: in.Kind, Rotor: in.Rotor, Counter: in.Counter,
						Weights: in.Weights, Deficit: in.Deficit,
						Score: in.Score, Round: in.Round, QIDs: tenants,
					}
				}
				wd.Banks[i] = telemetry.BankDebug{
					Bank:        b.Bank,
					Ready:       b.Ready,
					Selects:     b.Selects,
					Activations: b.Activations,
					Steals:      b.Steals,
					Parks:       b.Parks,
					Wakes:       b.Wakes,
					BlockedNs:   b.BlockedNs,
					Policy:      pd,
				}
			}
		}
		snap.Workers = append(snap.Workers, wd)
	}
	if st, ok := p.GovernorStatus(); ok {
		snap.Governor = &telemetry.GovernorDebug{
			Mode:          st.Mode.String(),
			Wait:          st.Wait.String(),
			ActiveWorkers: st.ActiveWorkers,
			Workers:       st.Workers,
			MaxBatch:      st.MaxBatch,
			Alpha:         st.Alpha,
			Transitions:   st.Transitions,
			Reason:        st.Reason,
		}
	}
	return snap
}

// notifierWorkers returns the workers whose notifiers should be reported
// (or reconfigured): all of them normally, only the first in the
// shared-pool organization — the pool shares one notifier there, and
// repeating it per worker would multiply-count every series (or
// redundantly re-apply every SetWaitConfig).
func (p *Plane) notifierWorkers() []*worker {
	if p.shared && len(p.workers) > 1 {
		return p.workers[:1]
	}
	return p.workers
}

// writeRuntimeMetrics is the collector the plane registers on its
// telemetry plane: ring-occupancy gauges per tenant and, in Notify mode,
// per-worker QWAIT and bank activity series.
func (p *Plane) writeRuntimeMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP hyperplane_backlog Items queued device-side per tenant.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_backlog gauge\n")
	for t := range p.devRings {
		fmt.Fprintf(w, "hyperplane_backlog{tenant=\"%d\"} %d\n", t, p.devRings[t].Len())
	}
	fmt.Fprintf(w, "# HELP hyperplane_out_backlog Items queued tenant-side per tenant.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_out_backlog gauge\n")
	for t := range p.outRings {
		fmt.Fprintf(w, "hyperplane_out_backlog{tenant=\"%d\"} %d\n", t, p.outRings[t].Len())
	}
	fmt.Fprintf(w, "# HELP hyperplane_quarantined_tenants Tenants currently quarantined (incl. probing).\n")
	fmt.Fprintf(w, "# TYPE hyperplane_quarantined_tenants gauge\n")
	fmt.Fprintf(w, "hyperplane_quarantined_tenants %d\n", p.inQuar.Load())
	if p.dur != nil {
		ws := p.dur.log.Stats()
		fmt.Fprintf(w, "# HELP hyperplane_wal_fsyncs_total WAL group commits that reached the disk.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "hyperplane_wal_fsyncs_total %d\n", ws.Fsyncs)
		fmt.Fprintf(w, "# HELP hyperplane_wal_bytes_total Bytes appended to WAL segments.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_wal_bytes_total counter\n")
		fmt.Fprintf(w, "hyperplane_wal_bytes_total %d\n", ws.AppendedBytes)
		fmt.Fprintf(w, "# HELP hyperplane_wal_segments WAL segments currently on disk.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_wal_segments gauge\n")
		fmt.Fprintf(w, "hyperplane_wal_segments %d\n", ws.Segments)
		fmt.Fprintf(w, "# HELP hyperplane_dlq_depth Items parked in the dead-letter queue per tenant.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_dlq_depth gauge\n")
		for t := range p.dur.tenants {
			fmt.Fprintf(w, "hyperplane_dlq_depth{tenant=\"%d\"} %d\n", t, p.DLQDepth(t))
		}
	}
	if p.cfg.Mode == Spin {
		return
	}
	fmt.Fprintf(w, "# HELP hyperplane_worker_active Workers currently admitted to run by the governor (all of them without one).\n")
	fmt.Fprintf(w, "# TYPE hyperplane_worker_active gauge\n")
	fmt.Fprintf(w, "hyperplane_worker_active %d\n", p.ActiveWorkers())
	fmt.Fprintf(w, "# HELP hyperplane_worker_park_seconds Cumulative C1-analog residency per worker: time parked on its notifier stripe plus time halted by the governor.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_worker_park_seconds counter\n")
	for i, s := range p.workerParkSeconds() {
		fmt.Fprintf(w, "hyperplane_worker_park_seconds{worker=\"%d\"} %g\n", i, s)
	}
	if st, ok := p.GovernorStatus(); ok {
		fmt.Fprintf(w, "# HELP hyperplane_governor_transitions_total Active-worker-set changes made by the governor.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_governor_transitions_total counter\n")
		fmt.Fprintf(w, "hyperplane_governor_transitions_total %d\n", st.Transitions)
		fmt.Fprintf(w, "# HELP hyperplane_governor_max_batch Live autotuned per-dispatch batch cap.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_governor_max_batch gauge\n")
		fmt.Fprintf(w, "hyperplane_governor_max_batch %d\n", st.MaxBatch)
		fmt.Fprintf(w, "# HELP hyperplane_governor_alpha Live autotuned EWMA smoothing factor.\n")
		fmt.Fprintf(w, "# TYPE hyperplane_governor_alpha gauge\n")
		fmt.Fprintf(w, "hyperplane_governor_alpha %g\n", st.Alpha)
	}
	fmt.Fprintf(w, "# HELP hyperplane_qwait_notifies_total Doorbell notifications per worker notifier.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_qwait_notifies_total counter\n")
	for _, wk := range p.notifierWorkers() {
		s := wk.n.Stats()
		fmt.Fprintf(w, "hyperplane_qwait_notifies_total{worker=\"%d\"} %d\n", wk.id, s.Notifies)
	}
	fmt.Fprintf(w, "# HELP hyperplane_bank_ready Enabled ready queues per notifier bank.\n")
	fmt.Fprintf(w, "# TYPE hyperplane_bank_ready gauge\n")
	type bankSeries struct {
		name, help string
		get        func(hyperplane.BankStats) int64
	}
	counters := []bankSeries{
		{"hyperplane_bank_selects_total", "Selections served per bank.",
			func(b hyperplane.BankStats) int64 { return b.Selects }},
		{"hyperplane_bank_activations_total", "Activations inserted per bank.",
			func(b hyperplane.BankStats) int64 { return b.Activations }},
		{"hyperplane_bank_steals_total", "QIDs stolen from each bank by sibling consumers.",
			func(b hyperplane.BankStats) int64 { return b.Steals }},
		{"hyperplane_bank_parks_total", "Waiters parked per bank stripe.",
			func(b hyperplane.BankStats) int64 { return b.Parks }},
		{"hyperplane_bank_wakes_total", "Wakeups delivered per bank stripe.",
			func(b hyperplane.BankStats) int64 { return b.Wakes }},
	}
	wks := p.notifierWorkers()
	all := make([][]hyperplane.BankStats, len(wks))
	for i, wk := range wks {
		all[i] = wk.n.BankStats()
		for _, b := range all[i] {
			fmt.Fprintf(w, "hyperplane_bank_ready{worker=\"%d\",bank=\"%d\"} %d\n", wk.id, b.Bank, b.Ready)
		}
	}
	for _, cs := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n", cs.name, cs.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", cs.name)
		for i, wk := range wks {
			for _, b := range all[i] {
				fmt.Fprintf(w, "%s{worker=\"%d\",bank=\"%d\"} %d\n", cs.name, wk.id, b.Bank, cs.get(b))
			}
		}
	}
}

// Quarantined reports whether the tenant is currently quarantined
// (including the probing window).
func (p *Plane) Quarantined(tenant int) bool {
	if tenant < 0 || tenant >= p.cfg.Tenants {
		return false
	}
	return p.tstate[tenant].state.Load() != tsHealthy
}

// Tenants returns the configured tenant count.
func (p *Plane) Tenants() int { return p.cfg.Tenants }

// Mode returns the configured notification mode.
func (p *Plane) Mode() Mode { return p.cfg.Mode }
