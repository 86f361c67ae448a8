package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestBatchHandlerEndToEnd: a BatchHandler transforms whole drained
// batches in place and the results arrive tenant-side in FIFO order, in
// both modes.
func TestBatchHandlerEndToEnd(t *testing.T) {
	for _, mode := range []Mode{Notify, Spin} {
		t.Run(mode.String(), func(t *testing.T) {
			var batchCalls, batchItems int64
			var mu sync.Mutex
			p, err := New(Config{
				Tenants:  2,
				Mode:     mode,
				MaxBatch: 8,
				Handler: func(_ int, payload []byte) ([]byte, error) {
					return append(payload, 'x'), nil
				},
				BatchHandler: func(_ int, payloads [][]byte) error {
					mu.Lock()
					batchCalls++
					batchItems += int64(len(payloads))
					mu.Unlock()
					for i := range payloads {
						payloads[i] = append(payloads[i], 'x')
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			defer p.Stop()

			const perTenant = 200
			for i := 0; i < perTenant; i++ {
				for tn := 0; tn < 2; tn++ {
					for !p.Ingress(tn, []byte(fmt.Sprintf("%d-%d", tn, i))) {
						time.Sleep(time.Microsecond)
					}
				}
			}
			waitFor(t, 5*time.Second, func() bool {
				return p.Stats().Delivered == 2*perTenant
			})
			for tn := 0; tn < 2; tn++ {
				for i := 0; i < perTenant; i++ {
					v, ok := p.EgressWait(tn)
					if !ok {
						t.Fatalf("tenant %d: egress %d failed", tn, i)
					}
					want := fmt.Sprintf("%d-%dx", tn, i)
					if string(v) != want {
						t.Fatalf("tenant %d item %d = %q, want %q", tn, i, v, want)
					}
				}
			}
			st := p.Stats()
			if st.Processed != 2*perTenant || st.Errors != 0 || st.Panics != 0 {
				t.Errorf("stats = %+v", st)
			}
			mu.Lock()
			calls, items := batchCalls, batchItems
			mu.Unlock()
			// Batches of one take the per-item path; everything else must
			// have gone through the BatchHandler in fewer calls than items.
			if calls > 0 && items <= calls {
				t.Errorf("batch handler saw %d items in %d calls — no batching", items, calls)
			}
		})
	}
}

// TestBatchPanicIsolation: a poisoned item inside a batch kills only
// itself. The batch attempt panics, the plane replays item by item, the
// per-item handler panics once on the poisoned item (counted, dropped),
// and every other item in the batch is delivered.
func TestBatchPanicIsolation(t *testing.T) {
	poison := []byte("poison")
	handler := func(_ int, payload []byte) ([]byte, error) {
		if string(payload) == string(poison) {
			panic("poisoned item")
		}
		return payload, nil
	}
	p, err := New(Config{
		Tenants:  1,
		MaxBatch: 16,
		Handler:  handler,
		BatchHandler: func(tenant int, payloads [][]byte) error {
			for i, pl := range payloads {
				out, err := handler(tenant, pl) // panics on the poisoned item
				if err != nil {
					return err
				}
				payloads[i] = out
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	// One burst so the whole thing lands in a single drained batch.
	items := make([]IngressItem, 10)
	for i := range items {
		items[i] = IngressItem{Tenant: 0, Payload: []byte{byte('0' + i)}}
	}
	items[4].Payload = poison
	if got := p.IngressBatch(items); got != len(items) {
		t.Fatalf("IngressBatch = %d", got)
	}
	waitFor(t, 5*time.Second, func() bool { return p.Stats().Delivered == 9 })
	st := p.Stats()
	if st.Panics != 1 {
		t.Errorf("Panics = %d, want 1 (batch attempt must not be counted)", st.Panics)
	}
	if st.Processed != 10 || st.Delivered != 9 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The nine survivors arrive in order, without the poisoned item.
	want := []byte("012356789")
	for i := 0; i < 9; i++ {
		v, ok := p.Egress(0)
		if !ok || v[0] != want[i] {
			t.Fatalf("egress %d = %q, %v (want %q)", i, v, ok, want[i])
		}
	}
}

// TestBatchErrorReplay: a BatchHandler error rejects the attempt and the
// per-item replay charges the error to exactly the failing item.
func TestBatchErrorReplay(t *testing.T) {
	bad := errors.New("bad item")
	handler := func(_ int, payload []byte) ([]byte, error) {
		if payload[0] == 0xff {
			return nil, bad
		}
		return payload, nil
	}
	p, err := New(Config{
		Tenants:  1,
		MaxBatch: 16,
		Handler:  handler,
		BatchHandler: func(tenant int, payloads [][]byte) error {
			for i, pl := range payloads {
				out, err := handler(tenant, pl)
				if err != nil {
					return err
				}
				payloads[i] = out
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	items := make([]IngressItem, 8)
	for i := range items {
		items[i] = IngressItem{Tenant: 0, Payload: []byte{byte(i)}}
	}
	items[3].Payload = []byte{0xff}
	p.IngressBatch(items)
	waitFor(t, 5*time.Second, func() bool { return p.Stats().Delivered == 7 })
	st := p.Stats()
	if st.Errors != 1 || st.Processed != 8 || st.Panics != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSharedIngressConcurrentProducers: with SharedIngress, many
// goroutines Ingress the same tenant concurrently; every accepted item is
// delivered and each producer's items stay in its submission order.
func TestSharedIngressConcurrentProducers(t *testing.T) {
	p, err := New(Config{
		Tenants:       1,
		SharedIngress: true,
		RingCapacity:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	const (
		producers = 4
		perProd   = 3000
	)
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for seq := 0; seq < perProd; seq++ {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint32(buf, uint32(pr))
				binary.LittleEndian.PutUint32(buf[4:], uint32(seq))
				for !p.Ingress(0, buf) {
					time.Sleep(time.Microsecond)
				}
			}
		}(pr)
	}

	nextSeq := make([]uint32, producers)
	dst := make([][]byte, 64)
	total := 0
	for total < producers*perProd {
		n := p.EgressBatch(0, dst)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range dst[:n] {
			pr := binary.LittleEndian.Uint32(v)
			seq := binary.LittleEndian.Uint32(v[4:])
			if seq != nextSeq[pr] {
				t.Fatalf("producer %d: got seq %d, want %d", pr, seq, nextSeq[pr])
			}
			nextSeq[pr]++
		}
		total += n
	}
	wg.Wait()
	st := p.Stats()
	if st.Delivered != producers*perProd || st.Backlog != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEgressBatchOrder: EgressBatch drains the delivery queue in FIFO
// order with one call per burst.
func TestEgressBatchOrder(t *testing.T) {
	p, err := New(Config{Tenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	const total = 40
	for i := 0; i < total; i++ {
		p.Ingress(0, []byte{byte(i)})
	}
	waitFor(t, 5*time.Second, func() bool { return p.Stats().Delivered == total })
	dst := make([][]byte, 16)
	got := 0
	for got < total {
		n := p.EgressBatch(0, dst)
		for i := 0; i < n; i++ {
			if dst[i][0] != byte(got+i) {
				t.Fatalf("out of order at %d: %d", got+i, dst[i][0])
			}
		}
		got += n
	}
	if n := p.EgressBatch(0, dst); n != 0 {
		t.Fatalf("EgressBatch on empty = %d", n)
	}
}

// TestMaxBatchOneBaseline: MaxBatch=1 pins the per-item dispatch path —
// the benchmarked baseline — and still satisfies end-to-end delivery.
func TestMaxBatchOneBaseline(t *testing.T) {
	for _, mode := range []Mode{Notify, Spin} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := New(Config{Tenants: 2, Mode: mode, MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			defer p.Stop()
			const total = 100
			for i := 0; i < total; i++ {
				for !p.Ingress(i%2, []byte{byte(i)}) {
					time.Sleep(time.Microsecond)
				}
			}
			waitFor(t, 5*time.Second, func() bool { return p.Stats().Delivered == total })
		})
	}
}

// TestDispatchZeroAllocs pins the zero-allocation claim for the whole
// dispatch loop: steady-state ingress -> batched drain -> BatchHandler ->
// bulk delivery -> batched egress must not allocate per item. Spin mode
// keeps the worker from parking (waiter channels are the one legitimate
// allocation on the blocking path).
func TestDispatchZeroAllocs(t *testing.T) {
	const burst = 16
	p, err := New(Config{
		Tenants:  1,
		Mode:     Spin,
		MaxBatch: burst,
		BatchHandler: func(_ int, payloads [][]byte) error {
			return nil // deliver as-is
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	payload := []byte{1}
	items := make([]IngressItem, burst)
	for i := range items {
		items[i] = IngressItem{Tenant: 0, Payload: payload}
	}
	dst := make([][]byte, burst)
	drive := func() {
		for p.IngressBatch(items) != burst {
			runtime.Gosched()
		}
		for got := 0; got < burst; {
			n := p.EgressBatch(0, dst[:burst-got])
			if n == 0 {
				runtime.Gosched()
				continue
			}
			got += n
		}
	}
	drive() // warm up ring and notifier state
	avg := testing.AllocsPerRun(50, drive)
	// One burst is 16 items; anything >= 1 allocation per burst means a
	// per-item (or per-batch) allocation crept into the hot path.
	if avg >= 1 {
		t.Errorf("allocs per %d-item burst = %v, want 0", burst, avg)
	}
}

// TestIngressBatchRejectedNamesRefusals: a mixed-tenant batch with a
// full ring, a bad tenant and a forwarded tenant in it reports exactly
// the refused items, by index, and agrees with IngressBatch's count.
func TestIngressBatchRejectedNamesRefusals(t *testing.T) {
	block := make(chan struct{})
	p, err := New(Config{
		Tenants:      4,
		Workers:      1,
		RingCapacity: 4,
		Handler: func(_ int, payload []byte) ([]byte, error) {
			<-block
			return payload, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	defer close(block)
	// Tenant 3 forwards, taking the first two items of any run.
	if err := p.SetTenantForward(3, func(items []IngressItem) int { return min(2, len(items)) }); err != nil {
		t.Fatal(err)
	}
	// Wedge the worker on tenant 0 so nothing drains behind the test.
	if !p.Ingress(0, []byte{0}) {
		t.Fatal("seed ingress refused")
	}
	waitFor(t, 5*time.Second, func() bool { return p.Stats().Backlog == 0 })

	var items []IngressItem
	add := func(tenant, n int) {
		for i := 0; i < n; i++ {
			items = append(items, IngressItem{Tenant: tenant, Payload: []byte{byte(tenant)}})
		}
	}
	add(1, 6)  // 0..5: ring of 4 takes 0..3
	add(2, 1)  // 6: fits
	add(9, 2)  // 7, 8: no such tenant
	add(1, 1)  // 9: tenant 1's ring is still full
	add(3, 3)  // 10..12: the forward takes two
	add(-1, 1) // 13: no such tenant
	want := []int{4, 5, 7, 8, 9, 12, 13}

	n, rej := p.IngressBatchRejected(items, []int{99})
	if n != len(items)-len(want) {
		t.Errorf("accepted %d, want %d", n, len(items)-len(want))
	}
	if rej[0] != 99 {
		t.Errorf("rejected indexes must be appended: got %v", rej)
	}
	if got := rej[1:]; !slices.Equal(got, want) {
		t.Errorf("rejected = %v, want %v", got, want)
	}
	// The plain call counts the same way: tenant 1 is full now, tenant 2
	// has room for its one, the forward takes its two.
	if n := p.IngressBatch(items); n != 3 {
		t.Errorf("IngressBatch on a second offer accepted %d, want 3", n)
	}
}

// TestIngressBatchRejectedAfterStop: a stopped plane refuses every item
// by index.
func TestIngressBatchRejectedAfterStop(t *testing.T) {
	p, err := New(Config{Tenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Stop()
	items := []IngressItem{{Tenant: 0}, {Tenant: 1}, {Tenant: 0}}
	n, rej := p.IngressBatchRejected(items, nil)
	if n != 0 || !slices.Equal(rej, []int{0, 1, 2}) {
		t.Errorf("stopped plane: accepted %d rejected %v, want 0 [0 1 2]", n, rej)
	}
}
