package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one line of out/trace-<workload>.jsonl. A message's root span
// ("msg", due to delivered) is the parent of its five segment spans, which
// tile it exactly, so a layer's self time is its own span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns on the run clock
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Msg    uint64 `json:"msg"`
	Phase  string `json:"phase"`
}

// spansPerPhase bounds the span file: the first records of each phase.
const spansPerPhase = 4096

func (h *harness) writeSpans(dir string, phases []*phaseState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+h.wl.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := segNames[h.wl.kind]
	for _, p := range phases {
		n := min(int(p.recN.Load()), len(p.recs), spansPerPhase)
		for i := range p.recs[:n] {
			r := &p.recs[i]
			at := r.due
			var end int64
			for _, d := range r.seg {
				end += d
			}
			if err := enc.Encode(span{Name: "msg", Start: at, End: at + end, Msg: r.id, Phase: p.spec.name}); err != nil {
				f.Close()
				return err
			}
			for s, d := range r.seg {
				if err := enc.Encode(span{Name: names[s], Start: at, End: at + d, Parent: "msg", Msg: r.id, Phase: p.spec.name}); err != nil {
					f.Close()
					return err
				}
				at += d
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
