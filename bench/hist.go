package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// Log-bucketed histogram of nanosecond durations: 32 sub-buckets per power
// of two (bucket width <= 3.1% of the value), linear interpolation inside a
// bucket when a quantile is read. Every message is recorded; nothing is
// sampled.
const (
	subBits  = 5
	subCount = 1 << subBits
	octaves  = 36 // values up to 2^(36+subBits) ns ~ 36 min
	nBuckets = (octaves + 1) * subCount
)

type hist struct {
	counts [nBuckets]atomic.Uint32
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBits - 1 // v>>exp is in [subCount, 2*subCount)
	b := (exp+1)*subCount + int(v>>uint(exp)) - subCount
	if b >= nBuckets {
		return nBuckets - 1
	}
	return b
}

// bucketBounds returns the half-open value range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < subCount {
		return float64(b), float64(b + 1)
	}
	exp := b/subCount - 1
	m := int64(b%subCount + subCount)
	return float64(m << uint(exp)), float64((m + 1) << uint(exp))
}

func (h *hist) add(v int64) { h.counts[bucketOf(v)].Add(1) }

// snapshot is a plain (non-atomic) merged copy of one or more hists.
type snapshot struct {
	counts [nBuckets]uint64
	n      uint64
}

func (s *snapshot) merge(h *hist) {
	for i := range h.counts {
		if c := uint64(h.counts[i].Load()); c != 0 {
			s.counts[i] += c
			s.n += c
		}
	}
}

// quantile returns the q-quantile (0<q<1) in nanoseconds, interpolated
// inside the bucket that holds it; 0 when the snapshot is empty.
func (s *snapshot) quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	target := q * float64(s.n)
	var cum float64
	for b, c := range s.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(nBuckets - 1)
	return lo
}

// tailQuantile is the value of the highest of p99.9/p99/p90 that still has
// at least ten samples beyond it, so a short run never reports a percentile
// it cannot support.
func (s *snapshot) tailQuantile() float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(s.n)*(1-q) >= 10 {
			return s.quantile(q)
		}
	}
	return s.quantile(0.5)
}

// stripedHist is one population's record, striped by tenant so the two plane
// workers never share a counter line.
const histStripes = 4

type stripedHist [histStripes]hist

func (h *stripedHist) add(stripe int, v int64) { h[stripe&(histStripes-1)].add(v) }

// mergeInto adds every stripe to s.
func (h *stripedHist) mergeInto(s *snapshot) {
	for i := range h {
		s.merge(&h[i])
	}
}

func (h *stripedHist) total() *snapshot {
	s := new(snapshot)
	h.mergeInto(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean drops the lowest and the highest value (when there are at
// least four) and averages the rest.
func trimmedMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) >= 4 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(max(len(s), 1))
}
