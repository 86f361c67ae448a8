package cluster

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster/frame"
)

// newLoneNode builds a started node with no peers and fast timings.
func newLoneNode(t *testing.T, id string, mut func(*Config)) (*Node, *dataplane.Plane) {
	t.Helper()
	p, err := dataplane.New(dataplane.Config{Tenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	cfg := Config{
		ID:             id,
		Plane:          p,
		FlushBatch:     1,
		FlushInterval:  time.Millisecond,
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  300 * time.Millisecond,
		DeadAfter:      400 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		p.Stop()
	})
	return n, p
}

// TestOutboxDropOldest: with an unreachable peer and a tiny forward
// buffer, overflow evicts the oldest frames and charges ForwardDropped.
func TestOutboxDropOldest(t *testing.T) {
	n, _ := newLoneNode(t, "a", func(c *Config) {
		c.ForwardBuffer = 2
		c.ForwardPolicy = dataplane.DropOldest
	})
	// Unroutable address: the dialer stays in backoff, nothing drains.
	if err := n.AddPeer(PeerSpec{ID: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	pr := n.peers["ghost"]
	for i := uint64(1); i <= 10; i++ {
		pr.send(0, i, []byte("x"))
	}
	if got := pr.outboxLen(); got != 2 {
		t.Fatalf("outbox holds %d frames, want the 2-frame bound", got)
	}
	if d := n.Metrics().ForwardDropped.Load(); d != 8 {
		t.Fatalf("ForwardDropped = %d, want 8", d)
	}
	// DropOldest keeps the newest frames: the survivors are 9 and 10.
	pr.mu.Lock()
	first := pr.outbox[0].bytes
	pr.mu.Unlock()
	if id := firstID(t, first); id != 9 {
		t.Fatalf("oldest surviving frame carries msg %d, want 9", id)
	}
}

// TestOutboxDropNewest: the opposite policy refuses new frames instead.
func TestOutboxDropNewest(t *testing.T) {
	n, _ := newLoneNode(t, "a", func(c *Config) {
		c.ForwardBuffer = 2
		c.ForwardPolicy = dataplane.DropNewest
	})
	if err := n.AddPeer(PeerSpec{ID: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	pr := n.peers["ghost"]
	for i := uint64(1); i <= 10; i++ {
		pr.send(0, i, []byte("x"))
	}
	if d := n.Metrics().ForwardDropped.Load(); d != 8 {
		t.Fatalf("ForwardDropped = %d, want 8", d)
	}
	pr.mu.Lock()
	first := pr.outbox[0].bytes
	pr.mu.Unlock()
	if id := firstID(t, first); id != 1 {
		t.Fatalf("oldest frame carries msg %d, want 1 (DropNewest keeps the head)", id)
	}
	// A control frame always makes room, even under DropNewest.
	pr.control(frame.AppendHandoff(nil, 3, 0))
	pr.mu.Lock()
	last := pr.outbox[len(pr.outbox)-1].bytes
	pr.mu.Unlock()
	if h, _ := frame.ParseHeader(last, 0); h.Type != frame.TypeHandoff {
		t.Fatalf("control frame not queued under DropNewest (tail is %v)", h.Type)
	}
}

// TestSendSealsAtFrameCap: staging seals by byte size before the frame
// would exceed the receiver's payload cap, not only at FlushBatch
// items — an oversized frame is fatal to the receiving connection, so
// one must never be built.
func TestSendSealsAtFrameCap(t *testing.T) {
	const maxPayload = 4096
	n, _ := newLoneNode(t, "a", func(c *Config) {
		c.FlushBatch = 64 // item-count seal must NOT be what bounds frames here
		c.MaxPayload = maxPayload
		c.DedupWindow = 64
		c.FlushInterval = time.Hour // no tick-driven seals during the test
	})
	if err := n.AddPeer(PeerSpec{ID: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	pr := n.peers["ghost"]
	const items = 40
	payload := make([]byte, 512)
	for i := uint64(1); i <= items; i++ {
		if !pr.send(uint32(i%4), i, payload) {
			t.Fatalf("send %d rejected", i)
		}
	}
	pr.flush()
	pr.mu.Lock()
	frames := make([][]byte, len(pr.outbox))
	counts := 0
	for i, f := range pr.outbox {
		frames[i] = append([]byte(nil), f.bytes...)
		counts += f.items
	}
	pr.mu.Unlock()
	if counts != items {
		t.Fatalf("outbox accounts for %d items, want %d", counts, items)
	}
	got := 0
	for _, fb := range frames {
		h, err := frame.ParseHeader(fb, maxPayload)
		if err != nil {
			t.Fatalf("a staged frame violates the receiver's cap: %v", err)
		}
		it := frame.IterBatch(fb[frame.HeaderSize : frame.HeaderSize+h.Length])
		for {
			if _, _, _, ok := it.Next(); !ok {
				break
			}
			got++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
	if got != items {
		t.Fatalf("decoded %d items across sealed frames, want %d", got, items)
	}
	if d := n.Metrics().ForwardDropped.Load(); d != 0 {
		t.Fatalf("ForwardDropped = %d, want 0", d)
	}
}

// TestSendRejectsOversizePayload: a single payload that cannot fit any
// frame is refused at send and counted as dropped, instead of being
// framed and killing the receiving connection.
func TestSendRejectsOversizePayload(t *testing.T) {
	n, _ := newLoneNode(t, "a", func(c *Config) {
		c.MaxPayload = 2048
		c.DedupWindow = 64
	})
	if err := n.AddPeer(PeerSpec{ID: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	pr := n.peers["ghost"]
	if pr.send(1, 7, make([]byte, 2048)) {
		t.Fatal("oversize payload accepted")
	}
	if d := n.Metrics().ForwardDropped.Load(); d != 1 {
		t.Fatalf("ForwardDropped = %d, want 1", d)
	}
	// Right at the boundary it still fits.
	if !pr.send(1, 8, make([]byte, 2048-frame.BatchRunOverhead-frame.BatchItemOverhead)) {
		t.Fatal("boundary payload rejected")
	}
}

// TestForwardingSurvivesByteHeavyBatches: end-to-end pin for the frame
// cap — two real nodes with a small shared MaxPayload and a FlushBatch
// whose worst case is far above it. Every forwarded item must arrive:
// before byte-based sealing, one staged batch exceeded the receiver's
// cap, tore the connection down, and silently lost the frame.
func TestForwardingSurvivesByteHeavyBatches(t *testing.T) {
	const (
		tenants    = 16
		maxPayload = 4096
		items      = 60
	)
	mut := func(c *Config) {
		c.FlushBatch = 64
		c.MaxPayload = maxPayload
		c.DedupWindow = 256
	}
	a, _ := newLoneNode(t, "a", mut)
	b, _ := newLoneNode(t, "b", mut)
	if err := a.AddPeer(PeerSpec{ID: "b", Addr: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(PeerSpec{ID: "a", Addr: a.Addr()}); err != nil {
		t.Fatal(err)
	}
	remote := -1
	for tn := 0; tn < 8; tn++ { // newLoneNode planes have 8 tenants
		if a.Owner(tn) == "b" {
			remote = tn
			break
		}
	}
	if remote == -1 {
		t.Fatal("no tenant owned by b")
	}
	payload := make([]byte, 512)
	for i := uint64(1); i <= items; i++ {
		if !a.Ingress(remote, i, payload) {
			t.Fatalf("ingress %d rejected", i)
		}
	}
	waitUntil(t, 15*time.Second, "byte-heavy batches delivered", func() bool {
		return b.Metrics().ReceivedItems.Load() == items
	})
	if fe := b.Metrics().FrameErrors.Load(); fe != 0 {
		t.Fatalf("receiver counted %d frame errors, want 0", fe)
	}
	if d := a.Metrics().ForwardDropped.Load(); d != 0 {
		t.Fatalf("sender dropped %d items, want 0", d)
	}
}

// TestHungPeerDeclaredDead: a remote that accepts TCP connections but
// never answers pings must still be declared dead (its tenants re-home)
// — and must be re-admitted once it starts answering. Liveness is the
// pong clock, not dial success.
func TestHungPeerDeclaredDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var answer atomic.Bool
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := frame.NewReader(c, 0)
				for {
					h, payload, err := r.Next()
					if err != nil {
						return
					}
					if h.Type == frame.TypePing && answer.Load() {
						nonce, perr := frame.ParsePing(payload)
						if perr != nil {
							return
						}
						if _, werr := c.Write(frame.AppendPing(nil, frame.TypePong, nonce)); werr != nil {
							return
						}
					}
				}
			}(c)
		}
	}()
	n, _ := newLoneNode(t, "a", nil)
	if err := n.AddPeer(PeerSpec{ID: "hung", Addr: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Members()); got != 2 {
		t.Fatalf("optimistic membership = %d members, want 2", got)
	}
	// The hung phase: connections succeed, pings vanish. The old
	// dial-success liveness never fired here.
	waitUntil(t, 15*time.Second, "hung peer declared dead", func() bool {
		return len(n.Members()) == 1
	})
	if pd := n.Metrics().PeerDowns.Load(); pd < 1 {
		t.Fatalf("PeerDowns = %d, want >= 1", pd)
	}
	// Recovery: the moment it answers a ping, the pong re-admits it.
	answer.Store(true)
	waitUntil(t, 15*time.Second, "recovered peer re-admitted", func() bool {
		return len(n.Members()) == 2
	})
	if pu := n.Metrics().PeerUps.Load(); pu < 1 {
		t.Fatalf("PeerUps = %d, want >= 1", pu)
	}
}

// TestBridgeReconnect: a flaky remote that accepts and immediately
// drops connections drives the dialer through its reconnect path.
func TestBridgeReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // drop immediately: the peer's read loop errors out
		}
	}()
	n, _ := newLoneNode(t, "a", nil)
	if err := n.AddPeer(PeerSpec{ID: "flaky", Addr: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 15*time.Second, "reconnect attempts", func() bool {
		return n.Metrics().Reconnects.Load() >= 2
	})
}

// TestInboundRejectsGarbage: a connection speaking garbage is counted
// and dropped; the node survives and keeps serving valid peers.
func TestInboundRejectsGarbage(t *testing.T) {
	n, _ := newLoneNode(t, "a", nil)
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "frame error count", func() bool {
		return n.Metrics().FrameErrors.Load() >= 1
	})
	// The listener is still alive for well-formed peers.
	conn2, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(frame.AppendHello(nil, "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(frame.AppendPing(nil, frame.TypePing, 77)); err != nil {
		t.Fatal(err)
	}
	r := frame.NewReader(conn2, 0)
	conn2.SetReadDeadline(time.Now().Add(10 * time.Second))
	h, payload, err := r.Next()
	if err != nil {
		t.Fatalf("pong read: %v", err)
	}
	if h.Type != frame.TypePong {
		t.Fatalf("got %v, want pong", h.Type)
	}
	if nonce, _ := frame.ParsePing(payload); nonce != 77 {
		t.Fatalf("pong nonce = %d, want 77", nonce)
	}
}

// TestInboundBatchFeedsPlane: a raw peer connection delivering a batch
// frame lands items in the plane, and the payload copy keeps them
// intact after the reader's buffer is reused by a second frame.
func TestInboundBatchFeedsPlane(t *testing.T) {
	n, p := newLoneNode(t, "a", nil)
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame.AppendHello(nil, "b")); err != nil {
		t.Fatal(err)
	}
	var e frame.Encoder
	e.Reset()
	e.Add(1, 500, []byte("first-frame-payload"))
	if _, err := conn.Write(e.Finish()); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	e.Add(2, 501, []byte("XXXXX-overwrite-XXX"))
	if _, err := conn.Write(e.Finish()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "batch admission", func() bool {
		return n.Metrics().ReceivedItems.Load() == 2
	})
	got, ok := p.EgressWait(1)
	if !ok || string(got) != "first-frame-payload" {
		t.Fatalf("tenant 1 payload = %q, %v", got, ok)
	}
	got, ok = p.EgressWait(2)
	if !ok || string(got) != "XXXXX-overwrite-XXX" {
		t.Fatalf("tenant 2 payload = %q, %v", got, ok)
	}
}

// cutConn accepts budget bytes, then fails every write — a connection
// that dies in the middle of a vectored outbox drain.
type cutConn struct {
	net.Conn // nil: only the methods writeOutbox calls are implemented
	budget   int
	got      []byte
}

func (c *cutConn) SetWriteDeadline(time.Time) error { return nil }

func (c *cutConn) Write(b []byte) (int, error) {
	n := min(len(b), c.budget)
	c.got = append(c.got, b[:n]...)
	c.budget -= n
	if n < len(b) {
		return n, errors.New("cut")
	}
	return n, nil
}

// firstID returns the message id of a batch frame's first item.
func firstID(t *testing.T, f []byte) uint64 {
	t.Helper()
	h, err := frame.ParseHeader(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	it := frame.IterBatch(f[frame.HeaderSize : frame.HeaderSize+h.Length])
	_, id, _, ok := it.Next()
	if !ok {
		t.Fatal("empty batch frame")
	}
	return id
}

// TestWriteOutboxPartialDrain: the writer takes the whole outbox in one
// vectored write. When the connection dies inside the second of three
// frames, the first counts as sent, and the torn one and everything
// behind it return to the head of the outbox, whole and in order, ahead
// of a frame queued while the write was in flight; the retry then sends
// them all, reusing the sent frames' buffers for the encoder.
func TestWriteOutboxPartialDrain(t *testing.T) {
	n, _ := newLoneNode(t, "a", nil) // FlushBatch 1: one frame per send
	if err := n.AddPeer(PeerSpec{ID: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	pr := n.peers["ghost"]
	for id := uint64(1); id <= 3; id++ {
		pr.send(0, id, []byte("payload"))
	}
	pr.mu.Lock()
	frameLen := len(pr.outbox[0].bytes)
	pr.mu.Unlock()

	cut := &cutConn{budget: frameLen + frameLen/2}
	if err := pr.writeOutbox(cut); err == nil {
		t.Fatal("write on a cut connection reported success")
	}
	pr.send(0, 4, []byte("payload")) // queued behind the retry
	m := n.Metrics()
	if got := m.ForwardBatches.Load(); got != 1 {
		t.Fatalf("ForwardBatches = %d after the cut, want 1", got)
	}
	pr.mu.Lock()
	var ids []uint64
	for _, f := range pr.outbox {
		ids = append(ids, firstID(t, f.bytes))
	}
	pr.mu.Unlock()
	if !slices.Equal(ids, []uint64{2, 3, 4}) {
		t.Fatalf("outbox after the cut holds ids %v, want [2 3 4]", ids)
	}

	whole := &cutConn{budget: 1 << 20}
	if err := pr.writeOutbox(whole); err != nil {
		t.Fatal(err)
	}
	if len(whole.got) != 3*frameLen || firstID(t, whole.got) != 2 {
		t.Fatalf("retry wrote %d bytes starting at id %d, want %d bytes from id 2", len(whole.got), firstID(t, whole.got), 3*frameLen)
	}
	if got := m.ForwardBatches.Load(); got != 4 {
		t.Fatalf("ForwardBatches = %d after the retry, want 4", got)
	}
	if got := pr.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d frames after a clean drain", got)
	}
	pr.mu.Lock()
	spares := len(pr.spare)
	pr.mu.Unlock()
	if spares == 0 {
		t.Fatal("no sent frame buffer was kept for the encoder to reuse")
	}
}
