package dedup

// mapWindow is the Go-map + order-ring Window the flat table replaced,
// kept verbatim as the reference the differential tests compare against.
type mapWindow struct {
	vals  map[uint64]uint64
	order []uint64
	pos   int
	n     int
}

func newMapWindow(size int) *mapWindow {
	if size < 1 {
		size = 1
	}
	return &mapWindow{vals: make(map[uint64]uint64, size), order: make([]uint64, size)}
}

func (w *mapWindow) Len() int { return w.n }

func (w *mapWindow) Lookup(id uint64) (uint64, bool) {
	v, ok := w.vals[id]
	return v, ok
}

func (w *mapWindow) AppendIDs(dst []uint64) []uint64 {
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

func (w *mapWindow) Remember(id, val uint64) {
	if _, ok := w.vals[id]; ok {
		w.vals[id] = val
		return
	}
	if w.n == len(w.order) {
		delete(w.vals, w.order[w.pos])
	} else {
		w.n++
	}
	w.order[w.pos] = id
	w.vals[id] = val
	w.pos = (w.pos + 1) % len(w.order)
}
