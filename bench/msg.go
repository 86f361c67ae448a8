package main

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
)

// Every message is self-describing, so the receiving side can verify it
// with nothing but the delivered bytes:
//
//	[0:4]   tenant
//	[4:8]   CRC-32C of bytes [8:len-trailer]
//	[8:16]  id    (global, unique, never 0; also the federation msgID)
//	[16:24] seq   (per tenant, starts at 1: the FIFO order being checked)
//	[24:32] due   (ns on the run clock: latency is timed from here)
//	[32:..] body  (seeded random bytes)
//	[len-trailer:] written by the workload's handler (skew: CRC-32 IEEE)
//
// The SSE workload cannot carry raw bytes (a newline splits an event), so
// its wire form is the header hex-encoded followed by an alphabetic body.
const (
	hdrLen      = 32
	hdrASCIILen = 2 * hdrLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type msg struct {
	tenant uint32
	id     uint64
	seq    uint64
	due    int64
}

type wire struct {
	size    int  // payload bytes on the wire
	ascii   bool // hex header + alphabetic body (SSE-safe)
	trailer int  // bytes at the end owned by the handler
}

func (w wire) bodyStart() int {
	if w.ascii {
		return hdrASCIILen
	}
	return hdrLen
}

// fillBody seeds the body of a fresh payload buffer.
func (w wire) fillBody(p []byte, rng *rand.Rand) {
	body := p[w.bodyStart():]
	rng.Read(body)
	if w.ascii {
		for i, b := range body {
			body[i] = 'a' + b%26
		}
	}
}

// put writes m's header into p (len(p) == w.size), leaving the body as is
// and zeroing the trailer.
func (w wire) put(p []byte, m msg) {
	end := len(p) - w.trailer
	clear(p[end:])
	if !w.ascii {
		putHeader(p[:hdrLen], m, p[hdrLen:end])
		return
	}
	var h [hdrLen]byte
	putHeader(h[:], m, p[hdrASCIILen:end])
	hex.Encode(p[:hdrASCIILen], h[:])
}

// putHeader fills the binary header h for m over body.
func putHeader(h []byte, m msg, body []byte) {
	binary.LittleEndian.PutUint32(h[0:], m.tenant)
	binary.LittleEndian.PutUint64(h[8:], m.id)
	binary.LittleEndian.PutUint64(h[16:], m.seq)
	binary.LittleEndian.PutUint64(h[24:], uint64(m.due))
	binary.LittleEndian.PutUint32(h[4:], checksum(h, body))
}

// checksum is CRC-32C over the header past the checksum field, then body.
func checksum(h, body []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, h[8:hdrLen]), castagnoli, body)
}

// get decodes and verifies a delivered payload. ok is false when the
// length, the checksum or the handler's trailer is wrong.
func (w wire) get(p []byte) (m msg, ok bool) {
	if len(p) != w.size {
		return m, false
	}
	end := len(p) - w.trailer
	if w.trailer > 0 && crc32.ChecksumIEEE(p[:end]) != binary.LittleEndian.Uint32(p[end:]) {
		return m, false
	}
	if !w.ascii {
		return getHeader(p[:hdrLen], p[hdrLen:end])
	}
	var h [hdrLen]byte
	if _, err := hex.Decode(h[:], p[:hdrASCIILen]); err != nil {
		return m, false
	}
	return getHeader(h[:], p[hdrASCIILen:end])
}

func getHeader(h, body []byte) (m msg, ok bool) {
	m.tenant = binary.LittleEndian.Uint32(h[0:])
	m.id = binary.LittleEndian.Uint64(h[8:])
	m.seq = binary.LittleEndian.Uint64(h[16:])
	m.due = int64(binary.LittleEndian.Uint64(h[24:]))
	return m, checksum(h, body) == binary.LittleEndian.Uint32(h[4:])
}

// id reads just the message id: all the handler wrappers need to find the
// message's slot.
func (w wire) id(p []byte) (uint64, bool) {
	if len(p) != w.size {
		return 0, false
	}
	if !w.ascii {
		return binary.LittleEndian.Uint64(p[8:]), true
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], p[16:32]); err != nil {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[:]), true
}

// Time stamps a traced message collects on its way, all on the run clock.
const (
	stSend   = iota // before the call into the public entry point
	stAdmit         // the call returned / the 202 was read
	stSrv0          // edge: ServeHTTP entered
	stSrv1          // edge: ServeHTTP returned
	stHstart        // the benchmark's handler entered
	stHend          // the benchmark's handler returned
	nStamps
)

// slot is the benchmark's per-message state, one cache line, found from the
// message id (id & mask). busy is set by the generator when it issues the
// message and cleared by whoever observes the delivery; the generator does
// not reuse a slot (or its payload buffer) while busy is set, so buffer
// recycling can never corrupt a message still inside the system.
type slot struct {
	busy   atomic.Uint32
	_      uint32
	stamps [nStamps]atomic.Int64
	_      [8]byte
}
