// Package dhtnet is the network realization of the paper's distributed seed
// hash table: a query node resolves seed lookups against a fleet of
// seed-shard servers (merserved -seed-shard), each owning the internal
// shards with shard % count == id of one sealed table (see dht.Partition).
// The engine aggregates a whole claim of reads' lookups into one call — the
// paper's software aggregation of remote stores, reborn as batched RPCs —
// and the client stages that call's seeds per owning node, so the
// per-lookup network cost is paid once per owner per call. Extension and
// Smith-Waterman stay at the querying node; output is byte-identical to the
// local engine.
//
// This file defines the batched binary lookup protocol (the body format of
// POST /v1/lookup). Both frames are little-endian and fixed-layout, so a
// lookup round-trip costs zero reflection and zero heap per seed beyond the
// location lists themselves.
//
// Request frame:
//
//	magic   "MLKQ" (4 B)
//	version u8 = 1
//	k       u8   seed length (sanity-checked against the shard's table)
//	_       u16  reserved, zero
//	count   u32  number of seeds
//	seeds   count x 16 B (kmer lo u64, hi u64)
//
// Response frame:
//
//	magic   "MLKR" (4 B)
//	version u8 = 1
//	_       u8   reserved, zero
//	_       u16  reserved, zero
//	count   u32  number of answers, equal to the request's seed count
//	answers count x { n u32, cnt u32, locs n x 12 B (frag i32, off i32,
//	        rc u8, 3 B pad) }
//
// n == 0 encodes a miss: a present seed always stores at least one
// location (dht's flat tables use the same invariant for empty slots), so
// absence needs no separate flag and the common miss costs 8 bytes.
package dhtnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

const (
	reqMagic  = "MLKQ"
	respMagic = "MLKR"
	wireVer   = 1

	reqHeaderSize  = 12
	respHeaderSize = 12
	seedWireBytes  = 16
	ansHeaderBytes = 8
	locWireBytes   = dht.LocWireBytes

	// MaxLookupBatch bounds the seeds of one request frame: a decoder
	// admission bound (a crafted count cannot force a huge allocation)
	// and the client's hard ceiling when splitting flushes.
	MaxLookupBatch = 1 << 16
)

// ErrProtocol matches every malformed-frame error of the lookup protocol,
// on either side: errors.Is(err, ErrProtocol) distinguishes "the peer spoke
// garbage" from transport failures.
var ErrProtocol = errors.New("dhtnet: protocol error")

// ProtocolError describes one malformed lookup frame.
type ProtocolError struct {
	Frame  string // "request" or "response"
	Reason string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("dhtnet: malformed lookup %s: %s", e.Frame, e.Reason)
}

// Is makes every ProtocolError match ErrProtocol.
func (e *ProtocolError) Is(target error) bool { return target == ErrProtocol }

func badFrame(frame, format string, args ...any) error {
	return &ProtocolError{Frame: frame, Reason: fmt.Sprintf(format, args...)}
}

// AppendLookupRequest appends the request frame for seeds to dst.
func AppendLookupRequest(dst []byte, k int, seeds []kmer.Kmer) []byte {
	var hdr [reqHeaderSize]byte
	copy(hdr[0:4], reqMagic)
	hdr[4] = wireVer
	hdr[5] = byte(k)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(seeds)))
	dst = append(dst, hdr[:]...)
	var sb [seedWireBytes]byte
	for _, s := range seeds {
		binary.LittleEndian.PutUint64(sb[0:], s.Lo)
		binary.LittleEndian.PutUint64(sb[8:], s.Hi)
		dst = append(dst, sb[:]...)
	}
	return dst
}

// DecodeLookupRequest parses a request frame, returning the seed length and
// the seeds (decoded into a fresh slice — the frame may be a transient
// network buffer). Malformed frames return a *ProtocolError matching
// ErrProtocol; the decoder never panics and never reads past b.
func DecodeLookupRequest(b []byte) (k int, seeds []kmer.Kmer, err error) {
	if len(b) < reqHeaderSize {
		return 0, nil, badFrame("request", "%d bytes is shorter than the %d-byte header", len(b), reqHeaderSize)
	}
	if string(b[0:4]) != reqMagic {
		return 0, nil, badFrame("request", "bad magic %q", b[0:4])
	}
	if b[4] != wireVer {
		return 0, nil, badFrame("request", "version %d (this build speaks %d)", b[4], wireVer)
	}
	k = int(b[5])
	if k < 1 || k > kmer.MaxK {
		return 0, nil, badFrame("request", "seed length %d out of range 1..%d", k, kmer.MaxK)
	}
	if b[6] != 0 || b[7] != 0 {
		return 0, nil, badFrame("request", "nonzero reserved bytes")
	}
	count := binary.LittleEndian.Uint32(b[8:])
	if count > MaxLookupBatch {
		return 0, nil, badFrame("request", "%d seeds exceeds the batch bound %d", count, MaxLookupBatch)
	}
	if want := reqHeaderSize + int(count)*seedWireBytes; len(b) != want {
		return 0, nil, badFrame("request", "%d bytes for %d seeds, want exactly %d", len(b), count, want)
	}
	seeds = make([]kmer.Kmer, count)
	for i := range seeds {
		off := reqHeaderSize + i*seedWireBytes
		seeds[i].Lo = binary.LittleEndian.Uint64(b[off:])
		seeds[i].Hi = binary.LittleEndian.Uint64(b[off+8:])
	}
	return k, seeds, nil
}

// AppendLookupResponse appends the response frame for answers to dst. A
// miss is encoded as n == 0 regardless of the answer's Locs.
func AppendLookupResponse(dst []byte, answers []LookupAnswer) []byte {
	var hdr [respHeaderSize]byte
	copy(hdr[0:4], respMagic)
	hdr[4] = wireVer
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(answers)))
	dst = append(dst, hdr[:]...)
	var ab [ansHeaderBytes]byte
	var lb [locWireBytes]byte
	for _, a := range answers {
		if !a.OK {
			binary.LittleEndian.PutUint32(ab[0:], 0)
			binary.LittleEndian.PutUint32(ab[4:], 0)
			dst = append(dst, ab[:]...)
			continue
		}
		binary.LittleEndian.PutUint32(ab[0:], uint32(len(a.Res.Locs)))
		binary.LittleEndian.PutUint32(ab[4:], uint32(a.Res.Count))
		dst = append(dst, ab[:]...)
		for _, loc := range a.Res.Locs {
			binary.LittleEndian.PutUint32(lb[0:], uint32(loc.Frag))
			binary.LittleEndian.PutUint32(lb[4:], uint32(loc.Off))
			if loc.RC {
				lb[8] = 1
			} else {
				lb[8] = 0
			}
			lb[9], lb[10], lb[11] = 0, 0, 0
			dst = append(dst, lb[:]...)
		}
	}
	return dst
}

// LookupAnswer is one resolved lookup on the wire: present (OK with the
// location list and total occurrence count) or absent.
type LookupAnswer struct {
	Res dht.LookupResult
	OK  bool
}

// DecodeLookupResponse parses a response frame into out, which must have
// room for exactly the expected answer count (the client knows how many
// seeds it asked about). Malformed frames — bad magic, count mismatch,
// truncated location lists, trailing bytes — return a *ProtocolError
// matching ErrProtocol; the decoder never panics and never over-reads.
func DecodeLookupResponse(b []byte, out []LookupAnswer) error {
	if len(b) < respHeaderSize {
		return badFrame("response", "%d bytes is shorter than the %d-byte header", len(b), respHeaderSize)
	}
	if string(b[0:4]) != respMagic {
		return badFrame("response", "bad magic %q", b[0:4])
	}
	if b[4] != wireVer {
		return badFrame("response", "version %d (this build speaks %d)", b[4], wireVer)
	}
	if b[5] != 0 || b[6] != 0 || b[7] != 0 {
		return badFrame("response", "nonzero reserved bytes")
	}
	count := binary.LittleEndian.Uint32(b[8:])
	if int64(count) != int64(len(out)) {
		return badFrame("response", "%d answers, expected %d", count, len(out))
	}
	pos := respHeaderSize
	for i := range out {
		if len(b)-pos < ansHeaderBytes {
			return badFrame("response", "answer %d: truncated header", i)
		}
		n := binary.LittleEndian.Uint32(b[pos:])
		cnt := binary.LittleEndian.Uint32(b[pos+4:])
		pos += ansHeaderBytes
		if n == 0 {
			if cnt != 0 {
				return badFrame("response", "answer %d: miss with nonzero count %d", i, cnt)
			}
			out[i] = LookupAnswer{}
			continue
		}
		if n > MaxLookupBatch*16 || int64(len(b)-pos) < int64(n)*locWireBytes {
			return badFrame("response", "answer %d: %d locations exceed the frame", i, n)
		}
		locs := make([]dht.Loc, n)
		for j := range locs {
			locs[j].Frag = int32(binary.LittleEndian.Uint32(b[pos:]))
			locs[j].Off = int32(binary.LittleEndian.Uint32(b[pos+4:]))
			switch b[pos+8] {
			case 0:
				locs[j].RC = false
			case 1:
				locs[j].RC = true
			default:
				return badFrame("response", "answer %d location %d: bad strand byte %d", i, j, b[pos+8])
			}
			if b[pos+9] != 0 || b[pos+10] != 0 || b[pos+11] != 0 {
				return badFrame("response", "answer %d location %d: nonzero padding", i, j)
			}
			pos += locWireBytes
		}
		out[i] = LookupAnswer{Res: dht.LookupResult{Locs: locs, Count: int32(cnt)}, OK: true}
	}
	if pos != len(b) {
		return badFrame("response", "%d trailing bytes after the last answer", len(b)-pos)
	}
	return nil
}
