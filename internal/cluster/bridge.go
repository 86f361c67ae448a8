package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster/frame"
)

// PeerSpec names a remote node: its cluster-wide id and dial address.
type PeerSpec struct {
	ID   string
	Addr string
}

// Dial backoff bounds: the first retry after a connection loss waits
// dialBackoffMin, doubling per failure up to dialBackoffMax.
const (
	dialBackoffMin = 100 * time.Millisecond
	dialBackoffMax = 5 * time.Second
)

// outFrame is one encoded frame queued for the writer, with its item
// count so drop accounting charges the right number of items.
type outFrame struct {
	bytes []byte
	items int
}

// peer is one remote node as seen from here: the staging encoder that
// coalesces forwarded items into batch frames (the remote-doorbell
// analogue of the edge's per-tenant stagers — same-tenant items share a
// run header, and one frame decodes into one IngressBatch on the
// owner), the bounded outbox a dedicated writer goroutine drains into a
// persistent TCP connection, and the health state that decides when the
// remote is declared dead.
type peer struct {
	id   string
	addr string
	n    *Node

	mu       sync.Mutex
	enc      frame.Encoder
	staged   int       // items in the open (unsealed) batch
	stagedAt time.Time // when the open batch got its first item
	outbox   []outFrame
	// spare holds written-out batch buffers: sealing a batch hands the
	// encoder's buffer to the outbox and takes one of these, so no frame
	// is copied on its way to the socket.
	spare [][]byte

	// Writer-goroutine state: the drain in flight and its iovec view.
	inflight []outFrame
	iov      [][]byte
	wbufs    net.Buffers

	kick chan struct{} // size-1 writer nudge

	up           atomic.Bool
	everUp       atomic.Bool
	lastPong     atomic.Int64 // UnixNano of the last pong (liveness proof)
	declaredDown atomic.Bool  // this node has removed the peer from its ring

	running  atomic.Bool // run() launched (set under the node's mu)
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newPeer(n *Node, spec PeerSpec) *peer {
	return &peer{
		id:   spec.ID,
		addr: spec.Addr,
		n:    n,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// send stages one item for this peer. The payload is copied into the
// staging encoder before returning, so the caller may recycle its
// buffer immediately. A batch is sealed into the outbox (and the
// writer kicked) when it reaches FlushBatch items OR when adding the
// item would push the frame past the receiver's payload cap — both
// sides run the same MaxPayload config, and an oversized frame is not
// a soft error on the wire: the receiver tears the connection down. A
// single payload too large to fit any frame is rejected here and
// counted in hyperplane_cluster_forward_dropped_total.
//
// Acceptance means "queued for forwarding", not delivered: the outbox
// retries frames whose socket write failed, but there is no
// application-level ack, so a frame the kernel accepted and the
// receiver then discarded (crash, or a stream poisoned by an earlier
// corrupt frame) is lost without retry — see writeOutbox. Bounded
// overflow drops under the configured policy, counted in
// hyperplane_cluster_forward_dropped_total.
func (pr *peer) send(tenant uint32, msgID uint64, payload []byte) bool {
	need := frame.BatchRunOverhead + frame.BatchItemOverhead + len(payload)
	if need > pr.n.maxPayload {
		pr.n.cm.ForwardDropped.Add(1)
		return false
	}
	pr.mu.Lock()
	sealed := false
	if pr.staged > 0 && pr.enc.Len()-frame.HeaderSize+need > pr.n.maxPayload {
		pr.flushLocked()
		sealed = true
	}
	if pr.staged == 0 {
		pr.enc.Reset()
		pr.stagedAt = time.Now()
	}
	pr.enc.Add(tenant, msgID, payload)
	pr.staged++
	if pr.staged >= pr.n.flushBatch {
		pr.flushLocked()
		sealed = true
	}
	pr.mu.Unlock()
	if sealed {
		pr.wake()
	}
	return true
}

// flushLocked seals the open batch into the outbox.
func (pr *peer) flushLocked() {
	if pr.staged == 0 {
		return
	}
	pr.enc.Finish()
	var spare []byte
	if k := len(pr.spare); k > 0 {
		spare, pr.spare = pr.spare[k-1], pr.spare[:k-1]
	} else {
		spare = make([]byte, 0, pr.enc.Len())
	}
	pr.enqueueLocked(outFrame{bytes: pr.enc.Swap(spare), items: pr.staged})
	pr.staged = 0
}

// enqueueLocked appends a frame to the bounded outbox, applying the
// forward-buffer drop policy on overflow. Control frames (items == 0)
// always make room by evicting the oldest batch — an ownership marker
// must not be the thing a full buffer drops.
func (pr *peer) enqueueLocked(f outFrame) {
	for len(pr.outbox) >= pr.n.forwardBuffer {
		if pr.n.forwardPolicy == dataplane.DropNewest && f.items > 0 {
			pr.n.cm.ForwardDropped.Add(int64(f.items))
			return
		}
		victim := pr.outbox[0]
		copy(pr.outbox, pr.outbox[1:])
		pr.outbox = pr.outbox[:len(pr.outbox)-1]
		pr.n.cm.ForwardDropped.Add(int64(victim.items))
	}
	pr.outbox = append(pr.outbox, f)
}

// flush seals any partial batch and kicks the writer (FlushInterval
// staleness, handoff tails, connection re-establishment).
func (pr *peer) flush() {
	pr.mu.Lock()
	pr.flushLocked()
	pending := len(pr.outbox) > 0
	pr.mu.Unlock()
	if pending {
		pr.wake()
	}
}

// control enqueues a pre-encoded control frame behind any staged items,
// preserving order (a handoff marker must trail the forwarded tail).
func (pr *peer) control(f []byte) {
	pr.mu.Lock()
	pr.flushLocked()
	pr.enqueueLocked(outFrame{bytes: f})
	pr.mu.Unlock()
	pr.wake()
}

func (pr *peer) wake() {
	select {
	case pr.kick <- struct{}{}:
	default:
	}
}

// outboxLen reports queued frames (telemetry gauge).
func (pr *peer) outboxLen() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.outbox)
}

// shutdown stops the peer goroutine; graceful seals the partial batch
// first so a final writeOutbox attempt can push it out.
func (pr *peer) shutdown(graceful bool) {
	if graceful {
		pr.flush()
	}
	pr.stopOnce.Do(func() { close(pr.stop) })
}

// start launches the connection goroutine exactly once. Callers hold
// the node's mu, so the start decision serializes with the shutdown
// snapshot: every peer shutdown() sees with running set is joinable,
// and no peer can begin running after the snapshot was taken.
func (pr *peer) start() {
	if pr.running.CompareAndSwap(false, true) {
		go pr.run()
	}
}

// alive records a liveness proof — an actual pong from the remote —
// and re-admits the peer to the ring if this node had declared it
// dead. A successful dial is deliberately NOT proof: a hung process
// can keep accepting TCP connections forever.
func (pr *peer) alive() {
	pr.lastPong.Store(time.Now().UnixNano())
	if pr.declaredDown.CompareAndSwap(true, false) {
		pr.n.peerUp(pr.id)
	}
}

// checkDead declares the peer dead once the pong clock is stale past
// DeadAfter — regardless of whether dials succeed.
func (pr *peer) checkDead() {
	if pr.declaredDown.Load() {
		return
	}
	if time.Since(time.Unix(0, pr.lastPong.Load())) >= pr.n.deadAfter {
		if pr.declaredDown.CompareAndSwap(false, true) {
			pr.n.peerDown(pr.id)
		}
	}
}

// run is the peer's connection lifecycle: dial with capped backoff,
// hello, serve until the connection dies, repeat until shutdown.
// Liveness is judged by pongs alone: lastPong refreshes only when the
// remote answers a ping (readLoop → alive), and the peer is declared
// dead whenever now−lastPong exceeds DeadAfter, whether the failure
// mode is refused dials or a hung-but-listening process. The ring
// re-admits the peer on the next pong, not on a mere successful dial.
func (pr *peer) run() {
	defer close(pr.done)
	backoff := dialBackoffMin
	pr.lastPong.Store(time.Now().UnixNano()) // grace window from start
	for {
		select {
		case <-pr.stop:
			return
		default:
		}
		pr.checkDead()
		conn, err := net.DialTimeout("tcp", pr.addr, pr.n.healthTimeout)
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(pr.n.healthTimeout))
			if _, werr := conn.Write(frame.AppendHello(nil, pr.n.cfg.ID)); werr != nil {
				conn.Close()
				err = werr
			} else {
				conn.SetWriteDeadline(time.Time{})
			}
		}
		if err != nil {
			select {
			case <-pr.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
			continue
		}
		if pr.everUp.Load() {
			pr.n.cm.Reconnects.Add(1)
		}
		pr.everUp.Store(true)
		backoff = dialBackoffMin
		pr.up.Store(true)
		pr.flush() // anything staged while disconnected goes out now
		pr.serveConn(conn)
		pr.up.Store(false)
		conn.Close()
	}
}

// serveConn drives one established connection: drain the outbox on
// kicks, seal stale partial batches on the flush tick, probe liveness
// with pings, and bail on any read/write error (framing is untrusted
// after a failure — the reconnect path starts clean).
func (pr *peer) serveConn(conn net.Conn) {
	readErr := make(chan struct{}, 1)
	go pr.readLoop(conn, readErr)
	ping := time.NewTicker(pr.n.healthInterval)
	defer ping.Stop()
	flushT := time.NewTicker(pr.n.flushInterval)
	defer flushT.Stop()
	var nonce uint64
	for {
		select {
		case <-pr.stop:
			pr.writeOutbox(conn) // best-effort final drain
			return
		case <-readErr:
			return
		case <-ping.C:
			if time.Since(time.Unix(0, pr.lastPong.Load())) > pr.n.deadAfter {
				// The remote accepts our writes but never answers:
				// declare it dead, but KEEP the connection and keep
				// pinging — the next pong is what re-admits it, so the
				// probe stream must not stop (a truly wedged socket
				// ends via the write deadline below instead).
				pr.n.cm.ProbeFailures.Add(1)
				pr.checkDead()
			}
			nonce++
			conn.SetWriteDeadline(time.Now().Add(pr.n.healthTimeout))
			if _, err := conn.Write(frame.AppendPing(nil, frame.TypePing, nonce)); err != nil {
				return
			}
		case <-flushT.C:
			pr.mu.Lock()
			if pr.staged > 0 && time.Since(pr.stagedAt) >= pr.n.flushInterval {
				pr.flushLocked()
			}
			pr.mu.Unlock()
			if err := pr.writeOutbox(conn); err != nil {
				return
			}
		case <-pr.kick:
			if err := pr.writeOutbox(conn); err != nil {
				return
			}
		}
	}
}

// maxSpare bounds the recycled batch buffers a peer keeps: one per frame
// sealed between two writer drains, a handful at saturation.
const maxSpare = 8

// writeOutbox drains queued frames onto the connection: each pass takes
// the whole outbox and writes it with one deadline and one vectored
// write. After a failed write the frames the socket did not take in full
// go back to the head so the reconnect retries them; a frame the socket
// accepted is treated as delivered. That makes the forward hop
// at-least-once across write *errors* but at-most-once past a
// successful write: with no application-level ack, a frame the receiver
// discards after the write (receiver crash, or a connection torn down
// by an earlier corrupt/oversized frame) is lost without retry and
// without a ForwardDropped count. The owner's dedup window absorbs the
// duplicates retries can produce; end-to-end delivery confirmation
// belongs to the layer above (the edge acks only what the owner
// admitted).
func (pr *peer) writeOutbox(conn net.Conn) error {
	for {
		pr.mu.Lock()
		if len(pr.outbox) == 0 {
			pr.mu.Unlock()
			return nil
		}
		pr.inflight, pr.outbox = pr.outbox, pr.inflight[:0]
		pr.mu.Unlock()

		pr.iov = pr.iov[:0]
		for _, f := range pr.inflight {
			pr.iov = append(pr.iov, f.bytes)
		}
		pr.wbufs = pr.iov // WriteTo consumes wbufs; iov keeps the backing array
		conn.SetWriteDeadline(time.Now().Add(pr.n.healthTimeout))
		wrote, err := pr.wbufs.WriteTo(conn)
		pr.n.cm.ForwardBytes.Add(wrote)

		pr.mu.Lock()
		// Frames the socket took in full are done (and their buffers go
		// back to the encoder), whether or not a later one failed.
		sent := 0
		for ; sent < len(pr.inflight) && wrote >= int64(len(pr.inflight[sent].bytes)); sent++ {
			f := pr.inflight[sent]
			wrote -= int64(len(f.bytes))
			if f.items > 0 {
				pr.n.cm.ForwardBatches.Add(1)
				if len(pr.spare) < maxSpare {
					pr.spare = append(pr.spare, f.bytes)
				}
			}
		}
		if err != nil {
			// The rest returns to the head, ahead of anything queued
			// meanwhile (the outbox may exceed its bound until the next
			// enqueue applies the drop policy).
			pr.inflight = append(pr.inflight[:copy(pr.inflight, pr.inflight[sent:])], pr.outbox...)
			pr.inflight, pr.outbox = pr.outbox, pr.inflight
		}
		clear(pr.inflight)
		pr.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// readLoop consumes the response side of the outbound connection —
// pongs refresh the liveness clock; anything else is tolerated and
// ignored. Any error closes the loop and signals serveConn.
func (pr *peer) readLoop(conn net.Conn, errc chan<- struct{}) {
	r := frame.NewReader(conn, pr.n.maxPayload)
	for {
		h, payload, err := r.Next()
		if err != nil {
			select {
			case errc <- struct{}{}:
			default:
			}
			return
		}
		if h.Type == frame.TypePong {
			if _, err := frame.ParsePing(payload); err == nil {
				pr.alive()
			}
		}
	}
}
