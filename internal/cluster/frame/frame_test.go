package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

type decoded struct {
	tenant uint32
	msgID  uint64
	body   string
}

func roundTrip(t *testing.T, items []decoded) {
	t.Helper()
	var e Encoder
	e.Reset()
	for _, it := range items {
		e.Add(it.tenant, it.msgID, []byte(it.body))
	}
	fr := e.Finish()
	h, err := ParseHeader(fr, 0)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if h.Type != TypeBatch {
		t.Fatalf("type = %v, want batch", h.Type)
	}
	payload := fr[HeaderSize:]
	if err := CheckPayload(h, payload); err != nil {
		t.Fatalf("CheckPayload: %v", err)
	}
	it := IterBatch(payload)
	var got []decoded
	for {
		tn, id, body, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, decoded{tn, id, string(body)})
	}
	if it.Err() != nil {
		t.Fatalf("iter error: %v", it.Err())
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], items[i])
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	roundTrip(t, nil) // empty batch
	roundTrip(t, []decoded{{0, 0, ""}})
	roundTrip(t, []decoded{{7, 42, "hello"}})
	// Same-tenant runs coalesce; interleaving opens new runs.
	roundTrip(t, []decoded{
		{1, 10, "a"}, {1, 11, "bb"}, {1, 12, ""},
		{2, 20, "ccc"},
		{1, 13, "d"},
		{0xFFFFFFFF, 1 << 63, "max-tenant"},
	})
	// Large-ish payloads.
	big := string(bytes.Repeat([]byte{0xAB}, 64<<10))
	roundTrip(t, []decoded{{3, 1, big}, {3, 2, big}})
}

func TestRunCoalescing(t *testing.T) {
	var e Encoder
	e.Reset()
	e.Add(5, 1, []byte("x"))
	e.Add(5, 2, []byte("y"))
	one := e.Len()
	e.Reset()
	e.Add(5, 1, []byte("x"))
	e.Add(6, 2, []byte("y"))
	two := e.Len()
	if two-one != 8 {
		t.Fatalf("tenant switch should cost exactly one 8-byte run header, got %d extra", two-one)
	}
}

func TestHeaderErrors(t *testing.T) {
	var e Encoder
	e.Reset()
	e.Add(1, 2, []byte("p"))
	fr := append([]byte(nil), e.Finish()...)

	if _, err := ParseHeader(fr[:8], 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), fr...)
	bad[0] ^= 0xFF
	if _, err := ParseHeader(bad, 0); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic: %v, want ErrMagic", err)
	}
	bad = append(bad[:0], fr...)
	bad[5] = 99
	if _, err := ParseHeader(bad, 0); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v, want ErrVersion", err)
	}
	if _, err := ParseHeader(fr, len(fr)-HeaderSize-1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over cap: %v, want ErrTooLarge", err)
	}
	h, err := ParseHeader(fr, 0)
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), fr[HeaderSize:]...)
	flip[len(flip)-1] ^= 1
	if err := CheckPayload(h, flip); !errors.Is(err, ErrCRC) {
		t.Errorf("flipped payload: %v, want ErrCRC", err)
	}
	if err := CheckPayload(h, fr[HeaderSize:len(fr)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short payload: %v, want ErrTruncated", err)
	}
}

func TestIterCorrupt(t *testing.T) {
	// Run header promises more items than the payload holds.
	var e Encoder
	e.Reset()
	e.Add(1, 1, []byte("abcd"))
	payload := append([]byte(nil), e.Finish()[HeaderSize:]...)
	for cut := 1; cut < len(payload); cut++ {
		it := IterBatch(payload[:cut])
		for {
			if _, _, _, ok := it.Next(); !ok {
				break
			}
		}
		if it.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestControlFrames(t *testing.T) {
	fr := AppendHello(nil, "node-a")
	h, _ := ParseHeader(fr, 0)
	if h.Type != TypeHello {
		t.Fatalf("type %v", h.Type)
	}
	id, err := ParseHello(fr[HeaderSize:])
	if err != nil || id != "node-a" {
		t.Fatalf("hello round-trip: %q, %v", id, err)
	}
	if _, err := ParseHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
	if _, err := ParseHello(bytes.Repeat([]byte("x"), 300)); err == nil {
		t.Error("oversized hello accepted")
	}

	fr = AppendPing(nil, TypePing, 0xDEADBEEF)
	n, err := ParsePing(fr[HeaderSize:])
	if err != nil || n != 0xDEADBEEF {
		t.Fatalf("ping round-trip: %x, %v", n, err)
	}

	fr = AppendHandoff(nil, 17, 4096)
	tn, items, err := ParseHandoff(fr[HeaderSize:])
	if err != nil || tn != 17 || items != 4096 {
		t.Fatalf("handoff round-trip: %d %d %v", tn, items, err)
	}
	if _, _, err := ParseHandoff([]byte{1, 2}); err == nil {
		t.Error("short handoff accepted")
	}
}

func TestReaderStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendHello(nil, "n1"))
	var e Encoder
	e.Reset()
	e.Add(4, 9, []byte("payload"))
	buf.Write(e.Finish())
	buf.Write(AppendPing(nil, TypePing, 7))

	r := NewReader(&buf, 0)
	h, p, err := r.Next()
	if err != nil || h.Type != TypeHello || string(p) != "n1" {
		t.Fatalf("frame 1: %v %v %q", h, err, p)
	}
	h, p, err = r.Next()
	if err != nil || h.Type != TypeBatch {
		t.Fatalf("frame 2: %v %v", h, err)
	}
	it := IterBatch(p)
	tn, id, body, ok := it.Next()
	if !ok || tn != 4 || id != 9 || string(body) != "payload" {
		t.Fatalf("batch item: %d %d %q %v", tn, id, body, ok)
	}
	h, _, err = r.Next()
	if err != nil || h.Type != TypePing {
		t.Fatalf("frame 3: %v %v", h, err)
	}
	if _, _, err = r.Next(); err != io.EOF {
		t.Fatalf("EOF: %v", err)
	}
}

// TestReaderCorruptIsTerminal: CRC damage surfaces as an error, not a
// decoded frame.
func TestReaderCorruptIsTerminal(t *testing.T) {
	var e Encoder
	e.Reset()
	e.Add(1, 1, []byte("x"))
	fr := append([]byte(nil), e.Finish()...)
	fr[len(fr)-1] ^= 1
	r := NewReader(bytes.NewReader(fr), 0)
	if _, _, err := r.Next(); !errors.Is(err, ErrCRC) {
		t.Fatalf("corrupt frame: %v, want ErrCRC", err)
	}
}

// TestEncoderZeroAlloc pins the bridge send path: once the buffer has
// grown, encoding a full batch allocates nothing.
func TestEncoderZeroAlloc(t *testing.T) {
	var e Encoder
	payload := bytes.Repeat([]byte{1}, 128)
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.Add(uint32(i%4), uint64(i), payload)
		}
		_ = e.Finish()
	})
	if allocs != 0 {
		t.Fatalf("encoder allocates %.1f/op, want 0", allocs)
	}
}

// TestIterZeroAlloc pins the receive path: iterating a decoded batch
// allocates nothing (items are views into the payload buffer).
func TestIterZeroAlloc(t *testing.T) {
	var e Encoder
	e.Reset()
	for i := 0; i < 64; i++ {
		e.Add(uint32(i%4), uint64(i), []byte("0123456789abcdef"))
	}
	payload := append([]byte(nil), e.Finish()[HeaderSize:]...)
	allocs := testing.AllocsPerRun(100, func() {
		it := IterBatch(payload)
		for {
			if _, _, _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("iterator allocates %.1f/op, want 0", allocs)
	}
}

// TestStateRoundTrip: the dedup-state frame reproduces its id list
// (including none) and rejects malformed payloads.
func TestStateRoundTrip(t *testing.T) {
	for _, ids := range [][]uint64{nil, {42}, {1, 2, 3, ^uint64(0)}} {
		f := AppendState(nil, 9, ids)
		h, err := ParseHeader(f, 0)
		if err != nil || h.Type != TypeState {
			t.Fatalf("header: %v %v", h, err)
		}
		payload := f[HeaderSize:]
		if err := CheckPayload(h, payload); err != nil {
			t.Fatal(err)
		}
		tenant, got, err := ParseState(payload)
		if err != nil || tenant != 9 {
			t.Fatalf("ParseState: tenant=%d err=%v", tenant, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("ids = %v, want %v", got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("ids = %v, want %v", got, ids)
			}
		}
	}
	if _, _, err := ParseState([]byte{1, 2}); err != ErrCorrupt {
		t.Fatalf("short state parse = %v, want ErrCorrupt", err)
	}
	if _, _, err := ParseState(make([]byte, 4+5)); err != ErrCorrupt {
		t.Fatalf("ragged state parse = %v, want ErrCorrupt", err)
	}
}

// TestEncoderSwap: Swap hands out the finished frame's buffer and
// continues on the spare, so a queued frame is never overwritten by the
// batch encoded after it.
func TestEncoderSwap(t *testing.T) {
	var e Encoder
	e.Reset()
	e.Add(1, 10, []byte("first"))
	e.Finish()
	spare := make([]byte, 0, 256)
	first := e.Swap(spare)
	if e.Items() != 0 || e.Len() != HeaderSize {
		t.Fatalf("encoder not reset after Swap: items %d len %d", e.Items(), e.Len())
	}
	e.Add(2, 20, []byte("second"))
	second := e.Finish()
	if &second[0] != &spare[:1][0] {
		t.Error("encoder did not continue on the spare buffer")
	}
	for _, want := range []struct {
		f      []byte
		tenant uint32
		id     uint64
		body   string
	}{{first, 1, 10, "first"}, {second, 2, 20, "second"}} {
		h, err := ParseHeader(want.f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPayload(h, want.f[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		it := IterBatch(want.f[HeaderSize:])
		tenant, id, body, ok := it.Next()
		if !ok || tenant != want.tenant || id != want.id || string(body) != want.body {
			t.Errorf("frame decodes to %d/%d/%q, want %d/%d/%q", tenant, id, body, want.tenant, want.id, want.body)
		}
	}
	// A nil spare is fine: the encoder allocates afresh.
	e.Swap(nil)
	e.Add(3, 30, []byte("third"))
	if e.Items() != 1 {
		t.Error("encoder unusable after Swap(nil)")
	}
}
