package main

import (
	"sync/atomic"
	"time"

	"hyperplane"
)

// Standalone probes of the hyperplane package's two public types, shaped
// like the workload (one notifier per plane worker, so queues = tenants /
// workers), run during the traced run's set-up. They time the primitives
// the plane layers are built from, outside the plane, in ns per operation.
type probeResult struct {
	notifyNs  float64 // Notify on an armed queue
	selectNs  float64 // per ready queue: WaitBatch, then ConsumeN
	wakeNs    float64 // Notify to a parked Wait returning (median)
	push1Ns   float64 // Queue.Push of one item (ring push + notify)
	pop1Ns    float64 // Queue.Pop of one item
	batch32Ns float64 // PushBatch + PopBatch of 32, per item
}

const (
	probeRounds = 64
	probeWakes  = 300
	probeItems  = 1 << 16
)

func runProbes(clk clock, queues int) (r probeResult, err error) {
	n, err := hyperplane.NewNotifier(hyperplane.NotifierConfig{MaxQueues: queues, Shards: 1})
	if err != nil {
		return r, err
	}
	defer n.Close()
	bells := make([]atomic.Int64, queues)
	qids := make([]hyperplane.QID, queues)
	for i := range bells {
		if qids[i], err = n.Register(&bells[i]); err != nil {
			return r, err
		}
	}
	dst := make([]hyperplane.QID, 64)
	var tNotify, tSelect int64
	for round := 0; round < probeRounds; round++ {
		t0 := clk.now()
		for i, q := range qids {
			bells[i].Add(1)
			n.Notify(q)
		}
		t1 := clk.now()
		for got := 0; got < queues; {
			c := n.WaitBatch(dst)
			for _, q := range dst[:c] {
				bells[q].Add(-1)
				n.ConsumeN(q, 1)
			}
			got += c
		}
		tNotify += t1 - t0
		tSelect += clk.now() - t1
	}
	ops := float64(probeRounds * queues)
	r.notifyNs = float64(tNotify) / ops
	r.selectNs = float64(tSelect) / ops

	// Wake: the consumer parks in Wait; the producer gives it 200 µs to get
	// there, stamps, rings, and reads the consumer's stamp.
	var wokeAt atomic.Int64
	woke := make(chan struct{})
	go func() {
		defer close(woke)
		for {
			q, ok := n.Wait()
			wokeAt.Store(clk.now())
			if !ok {
				return // notifier closed
			}
			bells[q].Add(-1)
			n.Consume(q)
			woke <- struct{}{}
		}
	}()
	ds := make([]float64, 0, probeWakes)
	for i := 0; i < probeWakes; i++ {
		nap(200 * time.Microsecond)
		t0 := clk.now()
		bells[0].Add(1)
		n.Notify(qids[0])
		<-woke
		ds = append(ds, float64(wokeAt.Load()-t0))
	}
	n.Close()
	<-woke
	r.wakeNs = median(ds)

	// Queue: the public ring + notifier pairing, single producer and
	// consumer on this goroutine, so the numbers are the uncontended cost.
	n, err = hyperplane.NewNotifier(hyperplane.NotifierConfig{MaxQueues: 1, Shards: 1})
	if err != nil {
		return r, err
	}
	defer n.Close()
	q, err := hyperplane.NewQueue[[]byte](n, 1024)
	if err != nil {
		return r, err
	}
	item := make([]byte, 8)
	var tPush, tPop int64
	for done := 0; done < probeItems; done += 512 {
		t0 := clk.now()
		for i := 0; i < 512; i++ {
			q.Push(item)
		}
		t1 := clk.now()
		for i := 0; i < 512; i++ {
			q.Pop()
		}
		tPush += t1 - t0
		tPop += clk.now() - t1
		n.Consume(q.QID())
	}
	r.push1Ns = float64(tPush) / probeItems
	r.pop1Ns = float64(tPop) / probeItems
	batch := make([][]byte, 32)
	for i := range batch {
		batch[i] = item
	}
	t0 := clk.now()
	for done := 0; done < probeItems; done += 32 {
		q.PushBatch(batch)
		q.PopBatch(batch)
		n.Consume(q.QID())
	}
	r.batch32Ns = float64(clk.now()-t0) / probeItems
	return r, nil
}
