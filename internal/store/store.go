// Package store owns the on-disk index formats of the walk-index subsystem:
// a page-aligned container (format v8) whose sections can be served straight
// off an mmap'd file, plus a delta/varint codec for compressed candidate-major
// CSR spans. A compressed chunk is consumed one of two ways: Spans.Materialize
// decodes it once, in a single presized pass split over GOMAXPROCS workers,
// into compact CSR arrays (what a heap load does), or Spans.NodeSpan decodes
// it on read through a per-chunk hot-row cache (what a mapped load does, so
// an index larger than RAM can serve off the page cache). Both run the same
// validating decoder.
//
// The package is deliberately dependency-free (stdlib only) and deals in
// generic CSR chunks; internal/index owns the glue that turns a store file
// into a serving Index and an Index into a store file. That keeps the
// dependency arrow pointing one way (index → store) even though the cache and
// the serving hot paths live in internal/index.
//
// # Format v8
//
// Everything is little-endian. The file is laid out so that every payload
// section starts on a page boundary and is covered by its own CRC32-C:
//
//	magic "RWDOMST8"
//	header: 12 × uint64 — version (8), graph fingerprint, graph epoch,
//	        n, L, R (total replicate width), R0 (first absolute
//	        replicate), seed, total entries, chunk count, page size,
//	        flags (reserved, 0)
//	header CRC32-C (uint32, covers magic + header)
//	directory: per chunk, 13 × uint64 — first absolute replicate, width,
//	        entries, encoding (0 raw, 1 varint), then for each of three
//	        sections: byte offset, byte length, CRC32-C
//	directory CRC32-C (uint32, covers the directory)
//	sections, each padded to the next page boundary
//
// A raw chunk stores its three CSR arrays verbatim (offsets: (width·n+1)
// int64, ids: int32, hops: uint16) in sections 0–2; because sections are
// page-aligned, a loader can alias them directly out of a read-only mapping
// with zero copies and zero decode work. A varint chunk stores two sections:
// per-node block offsets ((n+1) int64) and the block blob; section 2 is
// empty. Node u's block encodes the node's width replicate rows back to back:
// for each row, uvarint(rowLen) then rowLen × (uvarint(idDelta), uvarint(hop))
// with ids strictly ascending per row (delta ≥ 1 from a previous id of −1),
// which is what makes the deltas small and the blob typically 2–3× smaller
// than the raw arrays.
//
// Open verifies the header and directory CRCs, every structural bound, and
// every section CRC before returning — a bit flip, truncation, or stale
// directory anywhere in the file surfaces as an open error (the cache turns
// that into a counted rebuild), never as a wrong answer. The CRC pass is a
// sequential hardware-accelerated scan with no allocation or parse, so a v8
// open stays far cheaper than a v7 full deserialize even though it touches
// every page once.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

const (
	// Magic identifies a format-v8 store file; it deliberately differs from
	// the v7 magic ("RWDOMIDX") so loaders can sniff the format from the
	// first 8 bytes.
	Magic = "RWDOMST8"
	// Version is the container version this package reads and writes.
	Version = 8
	// DefaultPageSize is the section alignment written by default: the
	// ubiquitous 4 KiB page, which also guarantees 8-byte alignment for the
	// int64 sections aliased out of a mapping.
	DefaultPageSize = 4096
	// DefaultHotRows is the default decoded-block cache size per compressed
	// chunk served decode-on-read (see Spans).
	DefaultHotRows = 4096
)

// Section encodings, one per chunk in the directory.
const (
	encodingRaw    = 0
	encodingVarint = 1
)

const (
	headerWords  = 12
	headerSize   = len(Magic) + headerWords*8 + 4 // + CRC32-C
	dirEntrySize = 13 * 8
)

// castagnoli is the CRC32-C table every checksum in the format uses
// (hardware-accelerated on amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Identity is the build identity a store file carries, mirroring the v7
// header: enough for a loader to verify the file matches the graph and build
// parameters it is being bound to.
type Identity struct {
	Fingerprint uint64
	Epoch       uint64
	N           int
	L           int
	R           int
	R0          int
	Seed        uint64
	Entries     int64
}

// Chunk is one replicate chunk's compact candidate-major CSR, the unit the
// writer consumes: row (v, i) of the chunk is
// Ids[Offsets[v·Width+i]:Offsets[v·Width+i+1]] with parallel Hops.
type Chunk struct {
	R0      int
	Width   int
	Offsets []int64
	Ids     []int32
	Hops    []uint16
}

// hostLittleEndian reports whether the host stores integers little-endian.
// The format is defined little-endian and the zero-copy section views assume
// the host matches; every supported deployment target (amd64, arm64, riscv)
// does.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func checkHostEndian() error {
	if !hostLittleEndian {
		return fmt.Errorf("store: big-endian hosts are not supported by the zero-copy v8 reader")
	}
	return nil
}

// int64Bytes views a []int64 as its underlying bytes (little-endian hosts
// only; guarded by checkHostEndian).
func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func uint16Bytes(s []uint16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*2)
}

// bytesInt64 views a byte slice as []int64. The caller guarantees 8-byte
// alignment (sections are page-aligned and heap buffers are allocated
// aligned) and a length that is a multiple of 8.
func bytesInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func bytesInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func bytesUint16(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
}

// putUint64 appends v little-endian.
func putUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// alignUp rounds n up to the next multiple of page (a power of two).
func alignUp(n, page int64) int64 {
	return (n + page - 1) &^ (page - 1)
}
