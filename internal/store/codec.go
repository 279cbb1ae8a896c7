package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ErrMalformed marks a compressed block that fails to decode. The open-time
// CRC pass makes one unreachable short of a writer bug; a heap load, which
// decodes every block, fails with it instead of serving a wrong row.
var ErrMalformed = errors.New("store: malformed block")

// Delta/varint codec for compressed chunks. One node's block holds the
// node's replicate rows back to back; within a row, ids are strictly
// ascending so consecutive deltas stay small and most entries encode in
// 2–3 bytes (delta + hop) instead of the raw 6.

// rowSorter orders one row's (id, hop) pairs by id for encoding. The
// sharded build's atomic fallback path may scatter a row's entries out of
// source order; every consumer accumulates in integers so answers are
// order-independent, but the delta codec needs ascending ids, so the writer
// canonicalizes. A source appears at most once per row (first-visit
// semantics), so the order is total.
type rowSorter struct {
	ids  []int32
	hops []uint16
}

func (s *rowSorter) Len() int           { return len(s.ids) }
func (s *rowSorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *rowSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.hops[i], s.hops[j] = s.hops[j], s.hops[i]
}

// sortedRow returns row entries sorted ascending by id, reusing scratch when
// a copy is needed; rows that are already sorted (the common case — every
// build path except the atomic-counter fallback emits them sorted) are
// returned as-is with zero copies.
func sortedRow(ids []int32, hops []uint16, scratch *rowSorter) ([]int32, []uint16) {
	sorted := true
	for e := 1; e < len(ids); e++ {
		if ids[e] < ids[e-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return ids, hops
	}
	scratch.ids = append(scratch.ids[:0], ids...)
	scratch.hops = append(scratch.hops[:0], hops...)
	sort.Sort(scratch)
	return scratch.ids, scratch.hops
}

// encodeBlock appends node u's block — the chunk's width rows for u — to dst
// and returns it. offsets/ids/hops are the chunk's compact CSR.
func encodeBlock(dst []byte, u, width int, offsets []int64, ids []int32, hops []uint16, scratch *rowSorter) []byte {
	base := int64(u) * int64(width)
	for i := int64(0); i < int64(width); i++ {
		lo, hi := offsets[base+i], offsets[base+i+1]
		rid, rhop := sortedRow(ids[lo:hi], hops[lo:hi], scratch)
		dst = binary.AppendUvarint(dst, uint64(len(rid)))
		prev := int32(-1)
		for e := range rid {
			dst = binary.AppendUvarint(dst, uint64(rid[e]-prev))
			dst = binary.AppendUvarint(dst, uint64(rhop[e]))
			prev = rid[e]
		}
	}
	return dst
}

// decoded is one node's decoded block: local row bounds (offs[i]:offs[i+1]
// indexes ids/hops for row i) plus the entry arrays — the same shape the
// heap-resident hot paths consume, so store-backed gain arithmetic is
// line-for-line identical to heap-resident and therefore bit-identical.
type decoded struct {
	u    int32
	offs []int64
	ids  []int32
	hops []uint16
}

// blockEntries returns how many entries the varints of a run of rows blocks
// encode. Every uvarint ends in exactly one byte below 0x80, and a block holds
// one length per row plus an (id delta, hop) pair per entry, so the count
// sizes the decode's arrays before a single varint is parsed. A decode that
// succeeds consumes every byte, one terminator per varint, so it fills
// exactly the counted entries; a malformed run reports ok=false or fails the
// decode.
func blockEntries(blob []byte, rows int64) (entries int64, ok bool) {
	var v int64
	for _, b := range blob {
		if b < 0x80 {
			v++
		}
	}
	v -= rows
	return v / 2, v >= 0 && v%2 == 0
}

// decodeRows is the one compressed-span decoder: it decodes node u's block
// (width rows) from blob straight into ids/hops starting at entry e, writes
// each row's start entry to rowStarts[0:width], and returns the entry after
// the block. ids and hops are the caller's presized arrays; an entry that
// would land at or past len(ids) is an error, so a lying block can never
// write outside the range it was given. Every read is bounds-checked and
// every decoded value validated — row length at most n, ids strictly
// ascending within a row and below n, hops in [1, maxHop], no trailing
// bytes — so a malformed block (impossible after the open-time CRC pass
// short of a writer bug) returns an error instead of panicking or
// producing garbage.
func decodeRows(blob []byte, u, width, n, maxHop int, rowStarts []int64, ids []int32, hops []uint16, e int64) (int64, error) {
	pos := 0
	limit := int64(len(ids))
	for i := 0; i < width; i++ {
		rowStarts[i] = e
		rowLen, sz := binary.Uvarint(blob[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("%w: node %d row %d: truncated row length", ErrMalformed, u, i)
		}
		pos += sz
		if rowLen > uint64(n) || int64(rowLen) > limit-e {
			return 0, fmt.Errorf("%w: node %d row %d: length %d exceeds n=%d or the declared entry count", ErrMalformed, u, i, rowLen, n)
		}
		prev := int64(-1)
		for end := e + int64(rowLen); e < end; e++ {
			delta, sz := binary.Uvarint(blob[pos:])
			if sz <= 0 {
				return 0, fmt.Errorf("%w: node %d row %d: truncated id delta", ErrMalformed, u, i)
			}
			pos += sz
			hop, sz := binary.Uvarint(blob[pos:])
			if sz <= 0 {
				return 0, fmt.Errorf("%w: node %d row %d: truncated hop", ErrMalformed, u, i)
			}
			pos += sz
			id := prev + int64(delta)
			if delta == 0 || id >= int64(n) {
				return 0, fmt.Errorf("%w: node %d row %d: id %d out of range (delta %d)", ErrMalformed, u, i, id, delta)
			}
			if hop == 0 || hop > uint64(maxHop) {
				return 0, fmt.Errorf("%w: node %d row %d: hop %d outside [1,%d]", ErrMalformed, u, i, hop, maxHop)
			}
			ids[e] = int32(id)
			hops[e] = uint16(hop)
			prev = id
		}
	}
	if pos != len(blob) {
		return 0, fmt.Errorf("%w: node %d: block has %d trailing bytes", ErrMalformed, u, len(blob)-pos)
	}
	return e, nil
}

// decodeBlock decodes node u's block from blob into its own arrays — the
// decode-on-read path of a mapped compressed chunk.
func decodeBlock(blob []byte, u, width, n, maxHop int) (*decoded, error) {
	entries, ok := blockEntries(blob, int64(width))
	if !ok {
		return nil, fmt.Errorf("%w: node %d: %d bytes do not hold %d whole rows", ErrMalformed, u, len(blob), width)
	}
	d := &decoded{u: int32(u), offs: make([]int64, width+1), ids: make([]int32, entries), hops: make([]uint16, entries)}
	if _, err := decodeRows(blob, u, width, n, maxHop, d.offs, d.ids, d.hops, 0); err != nil {
		return nil, err
	}
	d.offs[width] = entries
	return d, nil
}
