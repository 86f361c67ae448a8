// Package frame is the node-to-node wire protocol of the federation
// bridge: length-prefixed, CRC-framed messages carrying batches of
// tenant-grouped work items between planes. The format mirrors the ring
// batch path it feeds — items are grouped into same-tenant runs exactly
// like IngressBatch coalesces them, so one frame decodes straight into
// one IngressBatch call — and both directions are zero-alloc at steady
// state: the Encoder seals frames in place in a reusable buffer, and the
// Reader hands out payload views into its own reusable buffer that the
// BatchIter never copies.
//
// Frame layout (little-endian):
//
//	off  0: magic  uint32  "HPF1"
//	off  4: type   uint8
//	off  5: ver    uint8   (protocol version, currently 1)
//	off  6: rsv    uint16  (zero)
//	off  8: length uint32  (payload bytes after the header)
//	off 12: crc    uint32  (CRC-32C of the payload)
//
// Batch payload: repeated runs of
//
//	tenant uint32 | count uint32 | count x ( msgID uint64 | len uint32 | bytes )
//
// A decoder must treat every field as hostile: lengths are bounded
// before any allocation, the CRC is verified before iteration, and a
// truncated or inconsistent batch surfaces ErrCorrupt from the
// iterator, never a panic (see FuzzDecode).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire constants.
const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// Magic marks the start of every frame ("HPF1").
	Magic = 0x31465048
	// Version is the protocol version stamped into every header.
	Version = 1
	// DefaultMaxPayload bounds a peer's frame size unless the Reader is
	// built with an explicit cap: 1 MiB, comfortably above any staged
	// forward batch, small enough that a corrupt length field cannot
	// balloon memory.
	DefaultMaxPayload = 1 << 20
	// BatchRunOverhead and BatchItemOverhead are the batch payload's
	// per-run (tenant + count) and per-item (msgID + len) header sizes.
	// A sender staging items must seal its open batch before
	// Encoder.Len() - HeaderSize plus the next item's worst-case cost
	// (BatchRunOverhead + BatchItemOverhead + payload bytes) would
	// exceed the receiver's payload cap — an oversized frame is not a
	// soft error, it tears the receiving connection down.
	BatchRunOverhead  = 8
	BatchItemOverhead = 12
)

// Type identifies a frame's meaning.
type Type uint8

// Frame types.
const (
	// TypeHello opens a bridge connection: payload = sender node id.
	TypeHello Type = 1
	// TypeBatch carries tenant-grouped work items (the forwarded ingress
	// path).
	TypeBatch Type = 2
	// TypePing is a health probe; payload = 8-byte nonce.
	TypePing Type = 3
	// TypePong answers a ping, echoing its nonce.
	TypePong Type = 4
	// TypeHandoff transfers tenant ownership: payload = tenant uint32 +
	// items uint64 (how many items the old owner forwarded as the tail).
	TypeHandoff Type = 5
	// TypeState ships a tenant's dedup-window ids to the new owner ahead
	// of a handoff: payload = tenant uint32 + N x id uint64.
	TypeState Type = 6
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeBatch:
		return "batch"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeHandoff:
		return "handoff"
	case TypeState:
		return "state"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Decode errors. Everything a hostile or corrupt peer can provoke is one
// of these — never a panic.
var (
	ErrMagic     = errors.New("frame: bad magic")
	ErrVersion   = errors.New("frame: unsupported protocol version")
	ErrTooLarge  = errors.New("frame: payload exceeds cap")
	ErrCRC       = errors.New("frame: payload CRC mismatch")
	ErrCorrupt   = errors.New("frame: corrupt payload")
	ErrTruncated = errors.New("frame: truncated")
)

// castagnoli is the CRC-32C table (same polynomial as the WAL's record
// framing, hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is a parsed frame header.
type Header struct {
	Type   Type
	Length int    // payload bytes following the header
	CRC    uint32 // expected CRC-32C of the payload
}

// ParseHeader validates the fixed header fields. maxPayload <= 0 means
// DefaultMaxPayload.
func ParseHeader(b []byte, maxPayload int) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[0:]) != Magic {
		return Header{}, ErrMagic
	}
	if b[5] != Version {
		return Header{}, ErrVersion
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	n := binary.LittleEndian.Uint32(b[8:])
	if n > uint32(maxPayload) {
		return Header{}, ErrTooLarge
	}
	return Header{
		Type:   Type(b[4]),
		Length: int(n),
		CRC:    binary.LittleEndian.Uint32(b[12:]),
	}, nil
}

// CheckPayload verifies the payload against the header's CRC and length.
func CheckPayload(h Header, payload []byte) error {
	if len(payload) != h.Length {
		return ErrTruncated
	}
	if crc32.Checksum(payload, castagnoli) != h.CRC {
		return ErrCRC
	}
	return nil
}

// putHeader seals the 16-byte header in place over an already-appended
// payload.
func putHeader(dst []byte, typ Type, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:], Magic)
	dst[4] = byte(typ)
	dst[5] = Version
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[12:], crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, typ Type, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = append(dst, payload...)
	putHeader(dst[off:], typ, dst[off+HeaderSize:])
	return dst
}

// ---- control-frame payloads ----

// AppendHello appends a complete hello frame carrying the sender's node
// id.
func AppendHello(dst []byte, nodeID string) []byte {
	return AppendFrame(dst, TypeHello, []byte(nodeID))
}

// ParseHello decodes a hello payload.
func ParseHello(payload []byte) (string, error) {
	if len(payload) == 0 || len(payload) > 256 {
		return "", ErrCorrupt
	}
	return string(payload), nil
}

// AppendPing appends a ping (or pong) frame carrying nonce.
func AppendPing(dst []byte, typ Type, nonce uint64) []byte {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], nonce)
	return AppendFrame(dst, typ, p[:])
}

// ParsePing decodes a ping/pong nonce.
func ParsePing(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, ErrCorrupt
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendHandoff appends a handoff frame: tenant changes owner, items is
// the forwarded-tail count (informational, for telemetry).
func AppendHandoff(dst []byte, tenant uint32, items uint64) []byte {
	var p [12]byte
	binary.LittleEndian.PutUint32(p[0:], tenant)
	binary.LittleEndian.PutUint64(p[4:], items)
	return AppendFrame(dst, TypeHandoff, p[:])
}

// ParseHandoff decodes a handoff payload.
func ParseHandoff(payload []byte) (tenant uint32, items uint64, err error) {
	if len(payload) != 12 {
		return 0, 0, ErrCorrupt
	}
	return binary.LittleEndian.Uint32(payload[0:]), binary.LittleEndian.Uint64(payload[4:]), nil
}

// AppendState appends a dedup-state frame: the tenant's remembered
// message ids, oldest first, primed into the new owner's window before
// ownership flips.
func AppendState(dst []byte, tenant uint32, ids []uint64) []byte {
	p := make([]byte, 4+8*len(ids))
	binary.LittleEndian.PutUint32(p[0:], tenant)
	for i, id := range ids {
		binary.LittleEndian.PutUint64(p[4+8*i:], id)
	}
	return AppendFrame(dst, TypeState, p)
}

// ParseState decodes a dedup-state payload. The returned ids alias a
// fresh slice (the payload buffer may be reused by the caller).
func ParseState(payload []byte) (tenant uint32, ids []uint64, err error) {
	if len(payload) < 4 || (len(payload)-4)%8 != 0 {
		return 0, nil, ErrCorrupt
	}
	tenant = binary.LittleEndian.Uint32(payload[0:])
	n := (len(payload) - 4) / 8
	ids = make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(payload[4+8*i:])
	}
	return tenant, ids, nil
}

// ---- batch encoding ----

// Encoder builds batch frames in place in a growable, reusable buffer:
// Add items (same-tenant items coalesce into one run, exactly like
// IngressBatch groups them), then Finish seals header, length and CRC
// and hands back the framed bytes. After the buffer has grown to the
// working batch size the encoder allocates nothing (see
// TestEncoderZeroAlloc).
type Encoder struct {
	buf        []byte
	items      int
	lastTenant uint32
	countOff   int // offset of the open run's count field; 0 = no open run
}

// Reset clears the encoder for a new frame, keeping the buffer capacity.
func (e *Encoder) Reset() {
	if cap(e.buf) < HeaderSize {
		e.buf = make([]byte, HeaderSize, 512)
	}
	e.buf = e.buf[:HeaderSize]
	e.items = 0
	e.countOff = 0
}

// Items returns the number of items added since Reset.
func (e *Encoder) Items() int { return e.items }

// Len returns the current frame size (header included) in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Add appends one item. Items for the same tenant added back to back
// share one run header.
func (e *Encoder) Add(tenant uint32, msgID uint64, payload []byte) {
	if len(e.buf) < HeaderSize {
		e.Reset()
	}
	if e.countOff == 0 || e.lastTenant != tenant {
		var run [8]byte
		binary.LittleEndian.PutUint32(run[0:], tenant)
		e.countOff = len(e.buf) + 4
		e.buf = append(e.buf, run[:]...)
		e.lastTenant = tenant
	}
	cnt := binary.LittleEndian.Uint32(e.buf[e.countOff:])
	binary.LittleEndian.PutUint32(e.buf[e.countOff:], cnt+1)
	var it [12]byte
	binary.LittleEndian.PutUint64(it[0:], msgID)
	binary.LittleEndian.PutUint32(it[8:], uint32(len(payload)))
	e.buf = append(e.buf, it[:]...)
	e.buf = append(e.buf, payload...)
	e.items++
}

// Finish seals the frame and returns it. The returned slice aliases the
// encoder's buffer: consume (write) it before the next Reset/Add.
func (e *Encoder) Finish() []byte {
	if len(e.buf) < HeaderSize {
		e.Reset()
	}
	putHeader(e.buf, TypeBatch, e.buf[HeaderSize:])
	return e.buf
}

// Swap replaces the encoder's buffer with spare (nil is fine) and returns
// the old one, so a caller that queues finished frames can keep the
// bytes Finish returned without copying them. The encoder is left reset.
func (e *Encoder) Swap(spare []byte) []byte {
	old := e.buf
	e.buf = spare[:0]
	e.Reset()
	return old
}

// ---- batch decoding ----

// BatchIter walks a verified batch payload without copying: Next yields
// views into the payload buffer. Any structural inconsistency ends the
// iteration with Err() == ErrCorrupt.
type BatchIter struct {
	buf    []byte
	off    int
	tenant uint32
	left   uint32
	err    error
}

// IterBatch starts iterating a batch payload that already passed
// CheckPayload.
func IterBatch(payload []byte) BatchIter {
	return BatchIter{buf: payload}
}

// Next returns the next item as views into the payload. ok is false at
// the end of the batch or on corruption (check Err).
func (it *BatchIter) Next() (tenant uint32, msgID uint64, payload []byte, ok bool) {
	if it.err != nil {
		return 0, 0, nil, false
	}
	for it.left == 0 {
		if it.off == len(it.buf) {
			return 0, 0, nil, false
		}
		if len(it.buf)-it.off < 8 {
			it.err = ErrCorrupt
			return 0, 0, nil, false
		}
		it.tenant = binary.LittleEndian.Uint32(it.buf[it.off:])
		it.left = binary.LittleEndian.Uint32(it.buf[it.off+4:])
		it.off += 8
		// A zero-count run is legal (an empty flush) but two in a row
		// with no progress must not loop forever: the for condition
		// re-reads, and off advances every pass, so termination holds.
	}
	if len(it.buf)-it.off < 12 {
		it.err = ErrCorrupt
		return 0, 0, nil, false
	}
	msgID = binary.LittleEndian.Uint64(it.buf[it.off:])
	n := binary.LittleEndian.Uint32(it.buf[it.off+8:])
	it.off += 12
	if uint32(len(it.buf)-it.off) < n {
		it.err = ErrCorrupt
		return 0, 0, nil, false
	}
	payload = it.buf[it.off : it.off+int(n) : it.off+int(n)]
	it.off += int(n)
	it.left--
	return it.tenant, msgID, payload, true
}

// Err returns the corruption error, if iteration ended early.
func (it *BatchIter) Err() error { return it.err }

// ---- framed reader ----

// Reader decodes a stream of frames from r into a reusable payload
// buffer. The payload returned by Next is valid until the next call.
type Reader struct {
	r   io.Reader
	max int
	hdr [HeaderSize]byte
	buf []byte
}

// NewReader builds a Reader with the given payload cap (<= 0 means
// DefaultMaxPayload).
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{r: r, max: maxPayload}
}

// Next reads, validates and returns the next frame. Any wire error —
// including a CRC mismatch — is terminal for the connection: the caller
// must drop it and reconnect, because framing can no longer be trusted.
func (fr *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(fr.hdr[:], fr.max)
	if err != nil {
		return Header{}, nil, err
	}
	if cap(fr.buf) < h.Length {
		fr.buf = make([]byte, h.Length)
	}
	payload := fr.buf[:h.Length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return Header{}, nil, err
	}
	if err := CheckPayload(h, payload); err != nil {
		return Header{}, nil, err
	}
	return h, payload, nil
}
