package dedup

import (
	"math/rand"
	"testing"
)

func TestWindowRememberLookup(t *testing.T) {
	w := NewWindow(4)
	if w.Seen(1) {
		t.Fatal("empty window claims to have seen id 1")
	}
	w.Remember(1, 100)
	v, ok := w.Lookup(1)
	if !ok || v != 100 {
		t.Fatalf("Lookup(1) = %d,%v, want 100,true", v, ok)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(3)
	for id := uint64(1); id <= 3; id++ {
		w.Remember(id, id*10)
	}
	w.Remember(4, 40) // evicts 1
	if w.Seen(1) {
		t.Fatal("id 1 should have been evicted")
	}
	for id := uint64(2); id <= 4; id++ {
		if v, ok := w.Lookup(id); !ok || v != id*10 {
			t.Fatalf("Lookup(%d) = %d,%v, want %d,true", id, v, ok, id*10)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
}

func TestWindowReRememberUpdatesValue(t *testing.T) {
	w := NewWindow(2)
	w.Remember(7, 1)
	w.Remember(7, 2)
	if v, _ := w.Lookup(7); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (re-remember must not duplicate)", w.Len())
	}
	// The duplicate insert must not have burned an eviction slot.
	w.Remember(8, 3)
	if !w.Seen(7) || !w.Seen(8) {
		t.Fatal("window of 2 should hold both ids")
	}
}

func TestWindowSizeClamp(t *testing.T) {
	w := NewWindow(0)
	if w.Size() != 1 {
		t.Fatalf("Size = %d, want 1", w.Size())
	}
	w.Remember(1, 0)
	w.Remember(2, 0)
	if w.Seen(1) || !w.Seen(2) {
		t.Fatal("window of 1 should only hold the newest id")
	}
}

// TestWindowZeroAllocWarm pins the no-allocation claim for a warmed
// window: steady-state Lookup+Remember over a rotating id set must not
// allocate (the edge calls this under its per-tenant stager lock on the
// ingest hot path).
func TestWindowZeroAllocWarm(t *testing.T) {
	const size = 64
	w := NewWindow(size)
	id := uint64(0)
	warm := func() {
		for i := 0; i < 4*size; i++ {
			id++
			if _, ok := w.Lookup(id); !ok {
				w.Remember(id, id)
			}
		}
	}
	warm()
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Errorf("allocs per warmed window cycle = %v, want 0", avg)
	}
}

// checkAgainstOracle compares every observable of the flat window with
// the map implementation it replaced.
func checkAgainstOracle(t *testing.T, w *Window, o *mapWindow, probe []uint64) {
	t.Helper()
	if w.Len() != o.Len() {
		t.Fatalf("Len = %d, oracle %d", w.Len(), o.Len())
	}
	got, want := w.AppendIDs(nil), o.AppendIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendIDs len = %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendIDs[%d] = %d, oracle %d", i, got[i], want[i])
		}
	}
	for _, id := range append(probe, want...) {
		gv, gok := w.Lookup(id)
		wv, wok := o.Lookup(id)
		if gok != wok || gv != wv || w.Seen(id) != wok {
			t.Fatalf("Lookup(%d) = %d,%v (Seen %v), oracle %d,%v", id, gv, gok, w.Seen(id), wv, wok)
		}
	}
}

// collidingIDs returns n distinct non-zero ids whose home slot in w is
// the same, so they form one probe chain.
func collidingIDs(w *Window, n int) []uint64 {
	var ids []uint64
	home := w.home(1)
	for id := uint64(1); len(ids) < n; id++ {
		if w.home(id) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestWindowCollidingChains drives eviction through probe chains that
// share one home slot and wrap the end of the table: backward-shift
// delete must keep every survivor reachable.
func TestWindowCollidingChains(t *testing.T) {
	const size = 8
	w, o := NewWindow(size), newMapWindow(size)
	ids := collidingIDs(w, 3*size)
	// A second chain homed on the table's last slot, so it wraps to 0.
	for id := uint64(1 << 40); len(ids) < 5*size; id++ {
		if w.home(id) == len(w.slots)-1 {
			ids = append(ids, id)
		}
	}
	for round := 0; round < 3; round++ {
		for k := range ids {
			// Interleave the chains and re-remember old ids on the way.
			id := ids[(k*7+round)%len(ids)]
			w.Remember(id, id^uint64(round))
			o.Remember(id, id^uint64(round))
			checkAgainstOracle(t, w, o, ids)
		}
	}
}

// TestWindowZeroID: id 0 is an ordinary id — remembered, evicted in FIFO
// order and listed by AppendIDs like any other.
func TestWindowZeroID(t *testing.T) {
	w, o := NewWindow(3), newMapWindow(3)
	for _, id := range []uint64{5, 0, 6, 0, 7, 8, 0, 9, 10, 11} {
		w.Remember(id, id+100)
		o.Remember(id, id+100)
		checkAgainstOracle(t, w, o, []uint64{0, 5, 6, 7, 8, 9, 10, 11})
	}
}

// TestWindowDifferential replays seeded random traffic — dense
// sequential ids, a small hot set that keeps re-remembering, and wide
// random ids — through windows of several sizes, wrapping the eviction
// ring many times.
func TestWindowDifferential(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 100} {
		w, o := NewWindow(size), newMapWindow(size)
		rng := rand.New(rand.NewSource(int64(size)))
		next := uint64(0)
		for step := 0; step < 40*size+200; step++ {
			var id uint64
			switch rng.Intn(4) {
			case 0:
				next++
				id = next
			case 1:
				id = uint64(rng.Intn(2 * size)) // includes 0
			case 2:
				id = rng.Uint64()
			default:
				id = uint64(rng.Intn(size+1)) << 52 // same low bits, far apart
			}
			val := rng.Uint64()
			w.Remember(id, val)
			o.Remember(id, val)
			if step%7 == 0 || size <= 7 {
				checkAgainstOracle(t, w, o, []uint64{id, id + 1, 0, next, rng.Uint64()})
			}
		}
		checkAgainstOracle(t, w, o, nil)
	}
}

// FuzzWindow feeds arbitrary id streams through both implementations.
func FuzzWindow(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 0, 1, 4, 5, 0, 6})
	f.Add(uint8(1), []byte{0, 0, 1, 1, 0})
	f.Add(uint8(16), []byte{255, 254, 1, 255, 3, 3, 3, 9, 200, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161})
	f.Fuzz(func(t *testing.T, size uint8, stream []byte) {
		w, o := NewWindow(int(size)), newMapWindow(int(size))
		for i, b := range stream {
			// Two id families: small dense ids and ids differing only in
			// high bits (long probe chains under a weak hash).
			id := uint64(b)
			if i%3 == 2 {
				id <<= 56
			}
			w.Remember(id, uint64(i))
			o.Remember(id, uint64(i))
		}
		probe := make([]uint64, 0, 2*len(stream))
		for _, b := range stream {
			probe = append(probe, uint64(b), uint64(b)<<56)
		}
		checkAgainstOracle(t, w, o, probe)
	})
}
