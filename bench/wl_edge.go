package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/edge"
)

// edgeSys is one request's whole single-node life over loopback (not a real
// link): per tenant one keep-alive HTTP/1.1 connection POSTing pipelined
// /v1/ingest requests (a writer paces them, a reader drains the 202s) and
// one SSE subscriber connection reading /v1/subscribe. Default edge.Config.
type edgeSys struct {
	h      *harness
	srv    *edge.Server
	hs     *http.Server
	posts  []*postConn
	subs   []io.Closer
	wg     sync.WaitGroup
	non202 atomic.Uint64
}

// postConn is one ingest connection. Responses come back in request order,
// so the writer queues each request's id and send time for the reader.
type postConn struct {
	c          net.Conn
	head, tail []byte // request bytes around the hex message id
	wbuf       []byte
	pend       []pendReq // single-producer single-consumer ring
	pHead      atomic.Uint64
	pTail      atomic.Uint64
}

type pendReq struct {
	id   uint64
	send int64
}

const pendCap = 1 << 13 // above the slot pool, which bounds requests in flight

func buildEdge(h *harness) (system, error) {
	s := &edgeSys{h: h}
	if err := s.start(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *edgeSys) start() error {
	h := s.h
	srv, err := edge.New(edge.Config{Plane: dataplane.Config{
		Tenants: h.wl.tenants,
		Workers: 2,
		Handler: h.echoHandler,
	}})
	if err != nil {
		return err
	}
	s.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.stampServe(srv.Handler())}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln)
	}()
	addr := ln.Addr().String()

	for t := 0; t < h.wl.tenants; t++ {
		resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).
			Get("http://" + addr + "/v1/subscribe?tenant=" + strconv.Itoa(t))
		if err != nil {
			return err
		}
		s.subs = append(s.subs, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("edge-http-sse: subscribe: %s", resp.Status)
		}
		s.wg.Add(1)
		go s.readSSE(t, resp.Body)

		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		pc := &postConn{
			c:    c,
			head: []byte("POST /v1/ingest?tenant=" + strconv.Itoa(t) + " HTTP/1.1\r\nHost: bench\r\nX-Msg: "),
			tail: []byte("\r\nContent-Length: " + strconv.Itoa(h.w.size) + "\r\n\r\n"),
			pend: make([]pendReq, pendCap),
		}
		s.posts = append(s.posts, pc)
		s.wg.Add(1)
		go s.read202(pc)
	}
	// The SSE handler sends its headers before it registers the subscriber.
	deadline := time.Now().Add(stopTimeout)
	for srv.Stats().Connections < int64(h.wl.tenants) {
		if time.Now().After(deadline) {
			return fmt.Errorf("edge-http-sse: subscribers not registered")
		}
		nap(20 * time.Microsecond)
	}
	return nil
}

// stampServe is the benchmark's middleware around the edge's handler: on a
// traced phase it stamps when ServeHTTP was entered and left for the
// message named by the request's X-Msg header.
func (s *edgeSys) stampServe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !s.h.cur.Load().spec.traced {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.Header.Get("X-Msg"), 16, 64)
		t0 := s.h.clk.now()
		next.ServeHTTP(w, r)
		if err == nil {
			sl := s.h.slot(id)
			sl.stamps[stSrv0].Store(t0)
			sl.stamps[stSrv1].Store(s.h.clk.now())
		}
	})
}

func (s *edgeSys) submit(b []outMsg, traced bool) int {
	var now int64
	if traced {
		now = s.h.clk.now()
	}
	for i := range b {
		m := &b[i]
		pc := s.posts[m.tenant]
		pc.wbuf = append(pc.wbuf, pc.head...)
		pc.wbuf = strconv.AppendUint(pc.wbuf, m.id, 16)
		pc.wbuf = append(pc.wbuf, pc.tail...)
		pc.wbuf = append(pc.wbuf, m.p...)
		t := pc.pTail.Load()
		pc.pend[t%pendCap] = pendReq{id: m.id, send: now}
		pc.pTail.Store(t + 1)
		if traced {
			s.h.slot(m.id).stamps[stSend].Store(now)
		}
	}
	refused := 0
	for _, pc := range s.posts {
		if len(pc.wbuf) == 0 {
			continue
		}
		if _, err := pc.c.Write(pc.wbuf); err != nil {
			refused += bytes.Count(pc.wbuf, pc.head)
		}
		pc.wbuf = pc.wbuf[:0]
	}
	return refused
}

// read202 drains one ingest connection's responses. Anything but a 202 is a
// refused message; it is never delivered, so the checker counts it lost.
func (s *edgeSys) read202(pc *postConn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(pc.c, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		ok := len(line) >= 12 && string(line[9:12]) == "202"
		length, chunked := 0, false
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
			if v, found := bytes.CutPrefix(line, []byte("Content-Length: ")); found {
				length, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
			} else if bytes.HasPrefix(line, []byte("Transfer-Encoding: chunked")) {
				chunked = true
			}
		}
		for chunked {
			if line, err = br.ReadSlice('\n'); err != nil {
				return
			}
			n, _ := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if _, err = br.Discard(int(n) + 2); err != nil {
				return
			}
			chunked = n != 0
		}
		if _, err = br.Discard(length); err != nil {
			return
		}
		hd := pc.pHead.Load()
		req := pc.pend[hd%pendCap]
		pc.pHead.Store(hd + 1)
		if !ok {
			s.non202.Add(1)
			s.h.slot(req.id).busy.Store(0)
		}
		if p := s.h.cur.Load(); p.spec.traced && req.send != 0 {
			now := s.h.clk.now()
			p.layers[lhPostRTT].add(0, now-req.send)
		}
	}
}

// readSSE is one tenant's subscriber: every "data:" line is one delivered
// payload (payloads hold no newline), timed when its frame has been read
// off the socket.
func (s *edgeSys) readSSE(tenant int, body io.Reader) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		if p, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			s.h.deliver(tenant, p[:len(p)-1])
		}
	}
}

func (s *edgeSys) counters() map[string]float64 {
	c := planeCounters(s.srv.Plane())
	st := s.srv.Stats()
	c["edge.accepted"] = float64(st.Accepted)
	c["edge.flushes"] = float64(st.Flushes)
	c["edge.flushed_items"] = float64(st.FlushedItems)
	c["edge.fanout_msgs"] = float64(st.FanoutMsgs)
	c["edge.coalesced_writes"] = float64(st.CoalescedWrites)
	c["edge.sent_bytes"] = float64(st.SentBytes)
	c["edge.rejected"] = float64(st.Rejected)
	c["edge.rate_limited"] = float64(st.RateLimited)
	c["edge.slab_overflow"] = float64(st.SlabOverflow)
	c["edge.sub_dropped"] = float64(st.SubDropped)
	c["edge.non_202"] = float64(s.non202.Load())
	return c
}

func (s *edgeSys) backlog() int { return s.srv.Plane().Stats().Backlog }

func (s *edgeSys) stop() {
	for _, pc := range s.posts {
		pc.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	if s.srv != nil {
		s.srv.Shutdown(ctx, s.hs)
	}
	for _, b := range s.subs {
		b.Close()
	}
	s.wg.Wait()
}
