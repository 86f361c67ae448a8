package dataplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsConcurrentSnapshots hammers Stats() while producers ingress,
// workers crash and restart, and the plane finally stops — the snapshot
// surface the telemetry export plane scrapes. Run under -race this also
// proves the merge-on-read counters are data-race free. Each counter
// must be monotone non-decreasing across snapshots (no torn reads, no
// transient undercounts from pre-count/undo bookkeeping).
func TestStatsConcurrentSnapshots(t *testing.T) {
	p, err := New(Config{
		Tenants: 8,
		Workers: 2,
		Mode:    Notify,
		// Both producers below hit every tenant: the default SPSC ingress
		// rings admit one producer per tenant.
		SharedIngress: true,
		Quarantine:    QuarantineConfig{Threshold: 3, Backoff: time.Millisecond},
		Handler: func(tenant int, payload []byte) ([]byte, error) {
			if tenant == 7 {
				return nil, errors.New("poisoned tenant")
			}
			return payload, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Producers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte{1}
			for i := 0; !stop.Load(); i++ {
				p.Ingress((i+g)%8, payload)
			}
		}(g)
	}
	// Tenant consumers, so delivery never wedges on full rings.
	for tn := 0; tn < 8; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for !stop.Load() {
				if _, ok := p.Egress(tn); !ok {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(tn)
	}
	// Crash injector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			p.workers[i%2].crashNext.Store(true)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Snapshot readers assert monotonicity while everything churns.
	var raceErr atomic.Value
	snapDone := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := Stats{}
			for {
				select {
				case <-snapDone:
					return
				default:
				}
				s := p.Stats()
				if err := checkMonotone(prev, s); err != nil {
					raceErr.Store(err)
					return
				}
				prev = s
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.StopContext(ctx)
	// Keep snapshotting across and after Stop, then close the readers.
	time.Sleep(10 * time.Millisecond)
	close(snapDone)
	wg.Wait()

	if err, _ := raceErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Ingressed == 0 || s.Processed == 0 || s.Delivered == 0 {
		t.Fatalf("plane did no work: %+v", s)
	}
	if s.Restarts == 0 {
		t.Errorf("crash injector induced no restarts: %+v", s)
	}
	if s.Errors == 0 {
		t.Errorf("poisoned tenant produced no errors: %+v", s)
	}
	if s.Processed > s.Ingressed {
		t.Errorf("processed %d > ingressed %d", s.Processed, s.Ingressed)
	}
}

func checkMonotone(prev, cur Stats) error {
	type c struct {
		name       string
		prev, curr int64
	}
	for _, f := range []c{
		{"Ingressed", prev.Ingressed, cur.Ingressed},
		{"Processed", prev.Processed, cur.Processed},
		{"Delivered", prev.Delivered, cur.Delivered},
		{"Errors", prev.Errors, cur.Errors},
		{"Panics", prev.Panics, cur.Panics},
		{"Dropped", prev.Dropped, cur.Dropped},
		{"Restarts", prev.Restarts, cur.Restarts},
	} {
		if f.curr < f.prev {
			return fmt.Errorf("counter %s went backwards: %d -> %d", f.name, f.prev, f.curr)
		}
	}
	return nil
}
