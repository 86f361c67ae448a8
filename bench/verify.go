package main

import (
	"sync"
	"sync/atomic"
)

// checker decides, per delivered message, whether the system kept its
// contracts: every message delivered exactly once, in per-tenant order,
// with the bytes it was sent with. The in-order path is one CAS on the
// tenant's own cache line; anything else takes the tenant's lock.
type checker struct {
	tenants []tenantCheck
	corrupt atomic.Uint64 // bad checksum, bad length, or wrong tenant
}

type tenantCheck struct {
	next atomic.Uint64 // next expected seq; seqs start at 1

	mu        sync.Mutex
	missing   []uint64 // seqs skipped over and not seen since
	overflow  uint64   // skipped seqs beyond maxMissing: counted lost outright
	dup       uint64
	reordered uint64
}

// maxMissing bounds the per-tenant gap list; a run that loses more than
// this per tenant is broken beyond classification anyway.
const maxMissing = 4096

func newChecker(tenants int) *checker {
	c := &checker{tenants: make([]tenantCheck, tenants)}
	for i := range c.tenants {
		c.tenants[i].next.Store(1)
	}
	return c
}

// observe records the delivery of tenant's message seq.
func (c *checker) observe(tenant int, seq uint64) {
	t := &c.tenants[tenant]
	if t.next.CompareAndSwap(seq, seq+1) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		n := t.next.Load()
		switch {
		case seq == n:
			if t.next.CompareAndSwap(n, n+1) {
				return
			}
		case seq > n:
			// Jumped ahead: n..seq-1 are late or lost; time will tell.
			if t.next.CompareAndSwap(n, seq+1) {
				for s := n; s < seq; s++ {
					if len(t.missing) < maxMissing {
						t.missing = append(t.missing, s)
					} else {
						t.overflow++
					}
				}
				return
			}
		default:
			// Behind the cursor: a skipped message arriving late was
			// reordered; anything else was already delivered once.
			for i, s := range t.missing {
				if s == seq {
					t.missing = append(t.missing[:i], t.missing[i+1:]...)
					t.reordered++
					return
				}
			}
			t.dup++
			return
		}
	}
}

type verdict struct {
	Lost, Duplicated, Reordered, Corrupt uint64
}

func (v *verdict) add(o verdict) {
	v.Lost += o.Lost
	v.Duplicated += o.Duplicated
	v.Reordered += o.Reordered
	v.Corrupt += o.Corrupt
}

func (v verdict) failed() uint64 { return v.Lost + v.Duplicated + v.Reordered + v.Corrupt }

// finish closes the books: sent[t] is how many seqs the generator issued to
// tenant t. A message that was refused at the entry point was never
// delivered, so it is counted here as lost. A corrupt delivery cannot be
// matched to the message it was, which therefore also looks missing; it is
// counted once, as corrupt.
func (c *checker) finish(sent []uint64) verdict {
	v := verdict{Corrupt: c.corrupt.Load()}
	for i := range c.tenants {
		t := &c.tenants[i]
		t.mu.Lock()
		v.Lost += uint64(len(t.missing)) + t.overflow
		if next := t.next.Load(); sent[i]+1 > next {
			v.Lost += sent[i] + 1 - next
		}
		v.Duplicated += t.dup
		v.Reordered += t.reordered
		t.mu.Unlock()
	}
	v.Lost -= min(v.Lost, v.Corrupt)
	return v
}
