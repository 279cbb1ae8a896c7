package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync/atomic"
)

// OpenOptions configures the read path.
type OpenOptions struct {
	// Mmap serves the file through a read-only memory mapping: opening is a
	// metadata parse plus one sequential CRC scan (page-in happens lazily as
	// rows are touched), and a file larger than RAM serves through the page
	// cache. Without it the whole file is read into an aligned heap buffer —
	// same bytes, same views, no page-cache residency requirements.
	Mmap bool
	// HotRows sizes the per-chunk decoded-block cache that Spans.NodeSpan
	// serves compressed chunks through (rounded up to a power of two): 0
	// means DefaultHotRows, negative disables caching so every read decodes
	// (the pure decode-on-read mode the overhead benchmark measures).
	// Spans.Materialize never touches it.
	HotRows int
}

// FileStats is a snapshot of one file's decode-on-read counters.
type FileStats struct {
	// DecodeHits / DecodeMisses count compressed-span reads served from the
	// hot-row cache vs decoded from the blob. Raw chunks never decode and
	// count nothing.
	DecodeHits   int64
	DecodeMisses int64
	// DecodeErrors counts malformed blocks NodeSpan met (writer bug — file
	// corruption is caught by the open-time CRC pass); each one served an
	// empty span rather than panicking. Materialize fails instead.
	DecodeErrors int64
}

// File is an opened v8 store file. All methods are safe for concurrent use.
//
// Lifetime: slices returned by ChunkView.Raw and Spans.NodeSpan alias the
// file's mapping (or heap buffer) and do NOT keep the File reachable on
// their own — the consumer must hold the *File for as long as any view is
// live. internal/index pins it on every store-backed Index; the mapping is
// unmapped by a finalizer once the last reference drops, so eviction never
// races an in-flight query off its pages.
type File struct {
	path     string
	data     []byte
	mapped   bool
	pageSize int64
	id       Identity
	chunks   []chunkMeta

	decodeHits   atomic.Int64
	decodeMisses atomic.Int64
	decodeErrors atomic.Int64
}

type chunkMeta struct {
	r0, width int
	entries   int64
	encoding  uint64
	// sections: byte ranges into File.data, CRC-verified at open.
	secs [3]struct{ off, size int64 }
	// spans is the decode-on-read view of a varint chunk, built at open.
	spans *Spans
}

// Open opens, validates, and (optionally) maps a v8 store file. Every CRC
// (header, directory, all sections) and every structural bound is verified
// before returning: a truncated file, a flipped bit, or a directory whose
// section ranges do not match the payloads fails here — never at query time.
func Open(path string, opts OpenOptions) (*File, error) {
	if err := checkHostEndian(); err != nil {
		return nil, err
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer osf.Close()
	fi, err := osf.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size < int64(headerSize) {
		return nil, fmt.Errorf("store: %s: %d bytes, smaller than the %d-byte header", path, size, headerSize)
	}

	f := &File{path: path}
	if opts.Mmap {
		if data, merr := mmapFile(osf, size); merr == nil {
			f.data = data
			f.mapped = true
			runtime.SetFinalizer(f, func(ff *File) { _ = munmapFile(ff.data) })
		}
	}
	if f.data == nil {
		// Heap fallback: read into an 8-aligned buffer so the int64 section
		// views stay aligned exactly as the page-aligned mapping would be.
		buf := make([]int64, (size+7)/8)
		b := int64Bytes(buf)[:size]
		if _, err := io.ReadFull(osf, b); err != nil {
			return nil, fmt.Errorf("store: read %s: %w", path, err)
		}
		f.data = b
	}

	if err := f.parseAndVerify(opts); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return f, nil
}

// parseAndVerify checks the header, directory, and every section.
func (f *File) parseAndVerify(opts OpenOptions) error {
	data := f.data
	if string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("bad magic %q", data[:len(Magic)])
	}
	hdrEnd := len(Magic) + headerWords*8
	wantCRC := binary.LittleEndian.Uint32(data[hdrEnd:])
	if got := crc32.Checksum(data[:hdrEnd], castagnoli); got != wantCRC {
		return fmt.Errorf("corrupt header: checksum %08x, want %08x", got, wantCRC)
	}
	var h [headerWords]uint64
	for i := range h {
		h[i] = binary.LittleEndian.Uint64(data[len(Magic)+i*8:])
	}
	if h[0] != Version {
		return fmt.Errorf("unsupported version %d (want %d)", h[0], Version)
	}
	f.id = Identity{
		Fingerprint: h[1],
		Epoch:       h[2],
		N:           int(h[3]),
		L:           int(h[4]),
		R:           int(h[5]),
		R0:          int(h[6]),
		Seed:        h[7],
		Entries:     int64(h[8]),
	}
	chunkCount := h[9]
	f.pageSize = int64(h[10])
	if h[4] > 1<<16-1 || h[5] == 0 || h[5] > 1<<31 || h[6] > 1<<31 || h[3] > 1<<31 {
		return fmt.Errorf("implausible parameters n=%d L=%d R=%d R0=%d", h[3], h[4], h[5], h[6])
	}
	if chunkCount == 0 || chunkCount > h[5] {
		return fmt.Errorf("implausible chunk count %d for R=%d", chunkCount, h[5])
	}
	if f.id.Entries > int64(f.id.N)*int64(f.id.R)*int64(f.id.L) {
		return fmt.Errorf("entry count %d exceeds nRL bound", f.id.Entries)
	}
	if f.pageSize < 512 || f.pageSize&(f.pageSize-1) != 0 || f.pageSize > 1<<24 {
		return fmt.Errorf("implausible page size %d", f.pageSize)
	}

	dirOff := int64(headerSize)
	dirSize := int64(chunkCount) * dirEntrySize
	if dirOff+dirSize+4 > int64(len(data)) {
		return fmt.Errorf("truncated directory (%d chunks, %d bytes)", chunkCount, len(data))
	}
	dir := data[dirOff : dirOff+dirSize]
	wantCRC = binary.LittleEndian.Uint32(data[dirOff+dirSize:])
	if got := crc32.Checksum(dir, castagnoli); got != wantCRC {
		return fmt.Errorf("corrupt directory: checksum %08x, want %08x", got, wantCRC)
	}

	f.chunks = make([]chunkMeta, chunkCount)
	next := f.id.R0
	var totalEntries int64
	for c := range f.chunks {
		e := dir[c*dirEntrySize:]
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(e[i*8:]) }
		m := &f.chunks[c]
		m.r0 = int(word(0))
		m.width = int(word(1))
		m.entries = int64(word(2))
		m.encoding = word(3)
		if m.r0 != next || m.width <= 0 || m.r0+m.width > f.id.R0+f.id.R {
			return fmt.Errorf("chunk %d range [%d, %d) (expected start %d within [%d, %d))",
				c, m.r0, m.r0+m.width, next, f.id.R0, f.id.R0+f.id.R)
		}
		if m.entries < 0 || m.entries > int64(m.width)*int64(f.id.N)*int64(f.id.L) {
			return fmt.Errorf("chunk %d entry count %d exceeds its nRL bound", c, m.entries)
		}
		if m.encoding != encodingRaw && m.encoding != encodingVarint {
			return fmt.Errorf("chunk %d unknown encoding %d", c, m.encoding)
		}
		rows := int64(m.width) * int64(f.id.N)
		var wantSizes [3]int64
		if m.encoding == encodingRaw {
			wantSizes = [3]int64{(rows + 1) * 8, m.entries * 4, m.entries * 2}
		} else {
			wantSizes = [3]int64{int64(f.id.N+1) * 8, -1, 0}
		}
		for s := 0; s < 3; s++ {
			off := int64(word(4 + s*3))
			sz := int64(word(4 + s*3 + 1))
			crc := uint32(word(4 + s*3 + 2))
			if wantSizes[s] >= 0 && sz != wantSizes[s] {
				return fmt.Errorf("chunk %d section %d: %d bytes, want %d (stale directory?)", c, s, sz, wantSizes[s])
			}
			if sz == 0 {
				continue
			}
			if off < int64(headerSize) || off%f.pageSize != 0 || sz < 0 || off+sz > int64(len(data)) {
				return fmt.Errorf("chunk %d section %d: range [%d, %d) outside file of %d bytes", c, s, off, off+sz, len(data))
			}
			if got := crc32.Checksum(data[off:off+sz], castagnoli); got != crc {
				return fmt.Errorf("chunk %d section %d: checksum %08x, want %08x", c, s, got, crc)
			}
			m.secs[s].off, m.secs[s].size = off, sz
		}
		next = m.r0 + m.width
		totalEntries += m.entries

		// Structural validation of the aliased arrays: the CRCs above catch
		// corruption, these catch a writer that serialized garbage — the
		// span bounds in particular must hold before gain loops slice with
		// them. Mirrors the v7 reader's checks, minus its decode and copy.
		if m.encoding == encodingRaw {
			offs := bytesInt64(f.section(m, 0))
			if offs[0] != 0 || offs[rows] != m.entries {
				return fmt.Errorf("chunk %d offsets (start %d, end %d, entries %d)", c, offs[0], offs[rows], m.entries)
			}
			for i := int64(1); i <= rows; i++ {
				if offs[i] < offs[i-1] {
					return fmt.Errorf("chunk %d offsets: decrease at row %d", c, i)
				}
			}
			ids := bytesInt32(f.section(m, 1))
			hops := bytesUint16(f.section(m, 2))
			for i, id := range ids {
				if id < 0 || int(id) >= f.id.N {
					return fmt.Errorf("chunk %d entry %d: node %d out of range", c, i, id)
				}
				if hops[i] == 0 || int(hops[i]) > f.id.L {
					return fmt.Errorf("chunk %d entry %d: hop %d outside [1,%d]", c, i, hops[i], f.id.L)
				}
			}
		} else {
			offs := bytesInt64(f.section(m, 0))
			blobLen := m.secs[1].size
			if offs[0] != 0 || offs[f.id.N] != blobLen {
				return fmt.Errorf("chunk %d block offsets (start %d, end %d, blob %d)", c, offs[0], offs[f.id.N], blobLen)
			}
			for i := 1; i <= f.id.N; i++ {
				if offs[i] < offs[i-1] {
					return fmt.Errorf("chunk %d block offsets: decrease at node %d", c, i)
				}
			}
			m.spans = newSpans(f, m, opts.HotRows)
		}
	}
	if next != f.id.R0+f.id.R {
		return fmt.Errorf("chunks cover [%d, %d), header declares [%d, %d)", f.id.R0, next, f.id.R0, f.id.R0+f.id.R)
	}
	if totalEntries != f.id.Entries {
		return fmt.Errorf("chunks hold %d entries, header declares %d", totalEntries, f.id.Entries)
	}
	return nil
}

// section returns the byte range of one chunk section.
func (f *File) section(m *chunkMeta, s int) []byte {
	sec := m.secs[s]
	return f.data[sec.off : sec.off+sec.size]
}

// Path returns the file path the store was opened from.
func (f *File) Path() string { return f.path }

// Identity returns the build identity from the header.
func (f *File) Identity() Identity { return f.id }

// Mapped reports whether the file is served through an mmap (vs a heap
// buffer).
func (f *File) Mapped() bool { return f.mapped }

// MappedBytes returns the size of the read-only mapping, 0 when heap-loaded.
func (f *File) MappedBytes() int64 {
	if !f.mapped {
		return 0
	}
	return int64(len(f.data))
}

// HeapBytes returns the heap footprint of the loaded file: the full buffer
// when heap-loaded, ~0 when mapped (pages belong to the page cache).
func (f *File) HeapBytes() int64 {
	if f.mapped {
		return 0
	}
	return int64(len(f.data))
}

// Chunks returns the number of replicate chunks in the file.
func (f *File) Chunks() int { return len(f.chunks) }

// Stats snapshots the decode-on-read counters.
func (f *File) Stats() FileStats {
	return FileStats{
		DecodeHits:   f.decodeHits.Load(),
		DecodeMisses: f.decodeMisses.Load(),
		DecodeErrors: f.decodeErrors.Load(),
	}
}

// ChunkView is a read-only view of one chunk.
type ChunkView struct {
	f *File
	m *chunkMeta
}

// Chunk returns the view of chunk c (0-based, in replicate order).
func (f *File) Chunk(c int) ChunkView { return ChunkView{f: f, m: &f.chunks[c]} }

// R0 returns the chunk's first absolute replicate number.
func (cv ChunkView) R0() int { return cv.m.r0 }

// Width returns the chunk's replicate width.
func (cv ChunkView) Width() int { return cv.m.width }

// Entries returns the chunk's materialized entry count.
func (cv ChunkView) Entries() int64 { return cv.m.entries }

// Compressed reports whether the chunk's spans are delta/varint-encoded.
func (cv ChunkView) Compressed() bool { return cv.m.encoding == encodingVarint }

// Raw returns the chunk's CSR arrays aliased directly out of the mapping (or
// heap buffer) with zero copies — raw chunks only. The slices are read-only
// (the mapping is PROT_READ: writes fault) and are valid only while the
// owning *File is reachable.
func (cv ChunkView) Raw() (offsets []int64, ids []int32, hops []uint16) {
	if cv.Compressed() {
		panic("store: Raw on a compressed chunk")
	}
	return bytesInt64(cv.f.section(cv.m, 0)), bytesInt32(cv.f.section(cv.m, 1)), bytesUint16(cv.f.section(cv.m, 2))
}

// Spans returns the decode-on-read view of a compressed chunk — nil for raw
// chunks (use Raw).
func (cv ChunkView) Spans() *Spans { return cv.m.spans }
