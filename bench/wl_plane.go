package main

import (
	"context"
	"encoding/binary"
	"hash/crc32"

	"hyperplane/dataplane"
)

// planeSys drives a dataplane.Plane in process: IngressBatch in, the
// benchmark's handler in the middle, OnDeliver out.
type planeSys struct {
	h     *harness
	p     *dataplane.Plane
	items []dataplane.IngressItem
}

func startPlane(h *harness, cfg dataplane.Config) (*planeSys, error) {
	cfg.OnDeliver = func(tenant int, payload []byte, _ uint64) {
		if payload != nil {
			h.deliver(tenant, payload)
		}
	}
	p, err := dataplane.New(cfg)
	if err != nil {
		return nil, err
	}
	p.Start()
	return &planeSys{h: h, p: p}, nil
}

func buildPlaneUniform(h *harness) (system, error) {
	return startPlane(h, dataplane.Config{
		Tenants:      h.wl.tenants,
		Workers:      2,
		RingCapacity: 256,
		Handler:      h.echoHandler,
	})
}

func buildPlaneSkew(h *harness) (system, error) {
	return startPlane(h, dataplane.Config{
		Tenants: h.wl.tenants,
		Workers: 2,
		// Deep enough for the hot tenant (a quarter of the traffic) to take
		// the catch-up burst an open-loop generator sends after a 50 ms host
		// stall: nothing may be refused.
		RingCapacity: 1 << 13,
		Handler:      h.crcHandler,
		BatchHandler: h.crcBatchHandler,
	})
}

func (s *planeSys) submit(b []outMsg, traced bool) int {
	items := s.items[:0]
	for i := range b {
		items = append(items, dataplane.IngressItem{Tenant: b[i].tenant, Payload: b[i].p})
	}
	s.items = items
	if !traced {
		return len(items) - s.p.IngressBatch(items)
	}
	t0 := s.h.clk.now()
	for i := range b {
		s.h.slot(b[i].id).stamps[stSend].Store(t0)
	}
	acc := s.p.IngressBatch(items)
	t1 := s.h.clk.now()
	for i := range b {
		s.h.slot(b[i].id).stamps[stAdmit].Store(t1)
	}
	p := s.h.cur.Load()
	p.ingressNs += t1 - t0
	p.ingress += int64(len(items))
	return len(items) - acc
}

func planeCounters(p *dataplane.Plane) map[string]float64 {
	st := p.Stats()
	return map[string]float64{
		"plane.dropped": float64(st.Dropped),
		"plane.errors":  float64(st.Errors),
		"plane.panics":  float64(st.Panics),
	}
}

func (s *planeSys) counters() map[string]float64 { return planeCounters(s.p) }
func (s *planeSys) backlog() int                 { return s.p.Stats().Backlog }

func (s *planeSys) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	s.p.StopContext(ctx)
}

// echoHandler is the benchmark's handler for every workload but the skewed
// one: it returns the payload untouched. Traced, it reads the clock twice,
// so plane.handler_ns is the cost of the stamps themselves: a control that
// must not move.
func (h *harness) echoHandler(_ int, payload []byte) ([]byte, error) {
	if h.cur.Load().spec.traced {
		t0 := h.clk.now()
		h.stampHandler(payload, t0, h.clk.now())
	}
	return payload, nil
}

// crcTrailer is the skewed workload's transport processing: CRC-32 (IEEE)
// of everything before the 4-byte trailer, written into the trailer. The
// receiver recomputes it, so a payload damaged on either side of the
// handler is caught.
func crcTrailer(p []byte) {
	end := len(p) - 4
	binary.LittleEndian.PutUint32(p[end:], crc32.ChecksumIEEE(p[:end]))
}

func (h *harness) crcBatchHandler(_ int, payloads [][]byte) error {
	p := h.cur.Load()
	if !p.spec.traced {
		for _, b := range payloads {
			crcTrailer(b)
		}
		return nil
	}
	t0 := h.clk.now()
	for _, b := range payloads {
		crcTrailer(b)
	}
	t1 := h.clk.now()
	for _, b := range payloads {
		h.stampHandler(b, t0, t1)
	}
	p.batchCalls.Add(1)
	p.batchItems.Add(int64(len(payloads)))
	return nil
}

// crcHandler is crcBatchHandler's per-item fallback; the plane also uses it
// for a drained batch of one.
func (h *harness) crcHandler(_ int, payload []byte) ([]byte, error) {
	p := h.cur.Load()
	if !p.spec.traced {
		crcTrailer(payload)
		return payload, nil
	}
	t0 := h.clk.now()
	crcTrailer(payload)
	h.stampHandler(payload, t0, h.clk.now())
	p.batchCalls.Add(1)
	p.batchItems.Add(1)
	return payload, nil
}
