package main

import (
	"context"
	"fmt"
	"math/rand"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster"
)

const (
	fedPlaneTenants = 640 // enough that A's ring hands B at least fedTenants of them
	fedTenants      = 256
	fedReplayEvery  = 100 // one replay per this many messages, at seeded positions
	fedRecent       = 32  // a replay re-sends one of this many most recent messages
)

// fedSys is two in-process cluster nodes joined over loopback TCP. The
// generator calls A.Ingress only for tenants B owns, so every message
// crosses the bridge; a seeded 1 % of calls replay a recent message id with
// its original bytes, and B's dedup window has to swallow each one.
type fedSys struct {
	h              *harness
	planeA, planeB *dataplane.Plane
	a, b           *cluster.Node
	strayA         paddedCounter // deliveries on A's plane: misrouted

	recent   [fedRecent]fedSent
	nRecent  uint64
	replayAt []uint16 // seeded offsets inside each block of fedReplayEvery messages
	replays  uint64
}

type fedSent struct {
	tenant int
	id     uint64
	p      []byte
}

func buildFed(h *harness) (system, error) {
	s := &fedSys{h: h}
	if err := s.start(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *fedSys) start() (err error) {
	h := s.h
	// A owns none of the generated tenants: anything its plane delivers was
	// misrouted.
	s.planeA, err = dataplane.New(dataplane.Config{
		Tenants: fedPlaneTenants, Workers: 2, RingCapacity: 256,
		OnDeliver: func(_ int, payload []byte, _ uint64) {
			if payload != nil {
				s.strayA.n.Add(1)
			}
		},
	})
	if err != nil {
		return err
	}
	s.planeB, err = dataplane.New(dataplane.Config{
		Tenants: fedPlaneTenants, Workers: 2, RingCapacity: 256,
		Handler: h.echoHandler,
		OnDeliver: func(tenant int, payload []byte, _ uint64) {
			if payload != nil {
				h.deliver(tenant, payload)
			}
		},
	})
	if err != nil {
		return err
	}
	s.planeA.Start()
	s.planeB.Start()
	if s.a, err = cluster.NewNode(cluster.Config{ID: "A", Plane: s.planeA}); err != nil {
		return err
	}
	if s.b, err = cluster.NewNode(cluster.Config{ID: "B", Plane: s.planeB}); err != nil {
		return err
	}
	if err = s.a.Start(); err != nil {
		return err
	}
	if err = s.b.Start(); err != nil {
		return err
	}
	if err = s.a.AddPeer(cluster.PeerSpec{ID: "B", Addr: s.b.Addr()}); err != nil {
		return err
	}
	if err = s.b.AddPeer(cluster.PeerSpec{ID: "A", Addr: s.a.Addr()}); err != nil {
		return err
	}

	var owned []uint16
	for t := 0; t < fedPlaneTenants && len(owned) < fedTenants; t++ {
		if s.a.Owner(t) == "B" {
			owned = append(owned, uint16(t))
		}
	}
	if len(owned) < fedTenants {
		return fmt.Errorf("fed-forward: node B owns only %d of %d tenants, need %d", len(owned), fedPlaneTenants, fedTenants)
	}
	rng := rand.New(rand.NewSource(h.seed))
	h.draws = make([]uint16, drawTable)
	for i := range h.draws {
		h.draws[i] = owned[rng.Intn(len(owned))]
	}
	s.replayAt = make([]uint16, 1024)
	for i := range s.replayAt {
		s.replayAt[i] = uint16(rng.Intn(fedReplayEvery))
	}
	for i := range s.recent {
		s.recent[i].p = make([]byte, h.w.size)
	}
	return nil
}

func (s *fedSys) submit(b []outMsg, traced bool) int {
	refused := 0
	for i := range b {
		m := &b[i]
		var sl *slot
		if traced {
			sl = s.h.slot(m.id)
			sl.stamps[stSend].Store(s.h.clk.now())
		}
		if !s.a.Ingress(m.tenant, m.id, m.p) {
			refused++
			s.h.slot(m.id).busy.Store(0)
		}
		if traced {
			// A delivery that beat this store read admit as 0, and
			// traceDeliver ended its ingress segment at handler start.
			sl.stamps[stAdmit].Store(s.h.clk.now())
		}
		r := &s.recent[s.nRecent%fedRecent]
		r.tenant, r.id = m.tenant, m.id
		copy(r.p, m.p)
		s.nRecent++
		block := s.nRecent / fedReplayEvery
		if s.nRecent%fedReplayEvery == uint64(s.replayAt[block%uint64(len(s.replayAt))]) {
			back := uint64(s.replayAt[(block+7)%uint64(len(s.replayAt))]) % min(s.nRecent, fedRecent)
			old := &s.recent[(s.nRecent-1-back)%fedRecent]
			s.a.Ingress(old.tenant, old.id, old.p)
			s.replays++
		}
	}
	return refused
}

func (s *fedSys) counters() map[string]float64 {
	c := planeCounters(s.planeB)
	ma, mb := s.a.Metrics(), s.b.Metrics()
	c["cluster.forwarded"] = float64(ma.Forwarded.Load())
	c["cluster.forward_batches"] = float64(ma.ForwardBatches.Load())
	c["cluster.forward_bytes"] = float64(ma.ForwardBytes.Load())
	c["cluster.forward_dropped"] = float64(ma.ForwardDropped.Load())
	c["cluster.reconnects"] = float64(ma.Reconnects.Load() + mb.Reconnects.Load())
	c["cluster.recv_deduped"] = float64(mb.RecvDeduped.Load())
	c["cluster.recv_rejected"] = float64(mb.RecvRejected.Load())
	c["cluster.frame_errors"] = float64(ma.FrameErrors.Load() + mb.FrameErrors.Load())
	c["cluster.replays_sent"] = float64(s.replays)
	c["cluster.stray_at_a"] = float64(s.strayA.n.Load())
	return c
}

func (s *fedSys) backlog() int { return s.planeB.Stats().Backlog }

func (s *fedSys) stop() {
	if s.a != nil {
		s.a.Stop()
	}
	if s.b != nil {
		s.b.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	for _, p := range []*dataplane.Plane{s.planeA, s.planeB} {
		if p != nil {
			p.StopContext(ctx)
		}
	}
}
