// Package dedup is the bounded message-id window shared by the durable
// tier's exactly-once admission, the network edge's idempotency keys and
// the cluster bridge's per-tenant receive windows. A Window remembers the
// last N distinct 64-bit ids (insertion order, oldest evicted first) and
// an optional 64-bit value per id — the durable tier and the bridge store
// nothing, the edge stores the sequence number of the original accept so
// a retried request can be answered identically without re-enqueueing.
//
// A Window is not safe for concurrent use; callers serialize on the
// per-tenant admission lock they already hold (the durable tier's
// admission mutex, the edge's stager mutex, the cluster's dedup shard).
// Nothing allocates after NewWindow: ids live in a flat open-addressed
// table (linear probing, backward-shift delete) sized once to at most
// half full, and the eviction ring is a fixed slice.
package dedup

import "math/bits"

// slot is one table entry. Key 0 marks an empty slot; id 0 itself is
// kept outside the table (see Window.zero).
type slot struct {
	key, val uint64
}

// Window is a bounded id -> value history with FIFO eviction.
type Window struct {
	slots []slot // power-of-two length, at most half full
	shift uint   // 64 - log2(len(slots)): home = hash >> shift
	order []uint64
	pos   int // next eviction/insertion slot in order
	n     int // remembered ids (<= len(order))

	// id 0 cannot be told from an empty slot, so it lives here.
	zero    bool
	zeroVal uint64
}

// NewWindow builds a window remembering up to size ids; size < 1 is
// clamped to 1.
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	lg := uint(bits.Len(uint(2*size - 1))) // smallest power of two >= 2*size
	return &Window{
		slots: make([]slot, 1<<lg),
		shift: 64 - lg,
		order: make([]uint64, size),
	}
}

// Size returns the window bound.
func (w *Window) Size() int { return len(w.order) }

// Len returns the number of ids currently remembered.
func (w *Window) Len() int { return w.n }

// home is id's preferred slot: Fibonacci hashing, which spreads the
// dense sequential ids producers usually mint as well as random ones.
func (w *Window) home(id uint64) int {
	return int((id * 0x9E3779B97F4A7C15) >> w.shift)
}

// find returns the slot holding id (id != 0), or -1. The table is never
// more than half full, so the probe always ends at an empty slot.
func (w *Window) find(id uint64) int {
	mask := len(w.slots) - 1
	for i := w.home(id); ; i = (i + 1) & mask {
		switch w.slots[i].key {
		case id:
			return i
		case 0:
			return -1
		}
	}
}

// Seen reports whether id is inside the window.
func (w *Window) Seen(id uint64) bool {
	_, ok := w.Lookup(id)
	return ok
}

// Lookup returns the value remembered for id and whether id is inside
// the window.
func (w *Window) Lookup(id uint64) (uint64, bool) {
	if id == 0 {
		return w.zeroVal, w.zero
	}
	if i := w.find(id); i >= 0 {
		return w.slots[i].val, true
	}
	return 0, false
}

// AppendIDs appends every remembered id to dst, oldest first — the
// serialization the cluster's tenant handoff ships to the new owner so
// duplicate suppression survives the ownership change.
func (w *Window) AppendIDs(dst []uint64) []uint64 {
	if w.n == 0 {
		return dst
	}
	start := w.pos - w.n
	if start < 0 {
		start += len(w.order)
	}
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.order[(start+i)%len(w.order)])
	}
	return dst
}

// Remember inserts id with the given value, evicting the oldest
// remembered id once the window is full. Re-remembering an id already in
// the window updates its value but not its eviction order.
func (w *Window) Remember(id, val uint64) {
	if id == 0 {
		if !w.zero {
			w.enqueue(0)
		}
		w.zero, w.zeroVal = true, val
		return
	}
	if i := w.find(id); i >= 0 {
		w.slots[i].val = val
		return
	}
	w.enqueue(id)
	mask := len(w.slots) - 1
	i := w.home(id)
	for w.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	w.slots[i] = slot{id, val}
}

// enqueue takes the next slot of the eviction ring for a new id, evicting
// the ring's oldest id from the table when the window is full.
func (w *Window) enqueue(id uint64) {
	if w.n == len(w.order) {
		w.forget(w.order[w.pos])
	} else {
		w.n++
	}
	w.order[w.pos] = id
	w.pos = (w.pos + 1) % len(w.order)
}

// forget removes a remembered id from the table by backward shift: every
// later entry of the probe chain that would become unreachable through
// the hole moves back into it, so no tombstones accumulate.
func (w *Window) forget(id uint64) {
	if id == 0 {
		w.zero, w.zeroVal = false, 0
		return
	}
	mask := len(w.slots) - 1
	i := w.find(id)
	for j := (i + 1) & mask; w.slots[j].key != 0; j = (j + 1) & mask {
		// slots[j] may fill the hole at i only if its home is not inside
		// (i, j] — otherwise moving it would put it before its home.
		if (j-w.home(w.slots[j].key))&mask >= (j-i)&mask {
			w.slots[i] = w.slots[j]
			i = j
		}
	}
	w.slots[i] = slot{}
}
