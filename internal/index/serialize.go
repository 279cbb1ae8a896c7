package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/graph"
)

// Serialization of materialized walk indexes. Building the index is the
// dominant cost of the approximate greedy algorithm (Fig. 8), and the same
// index serves every budget and both problems, so persisting it across runs
// is the natural production optimization. Loading against a structurally
// different graph is rejected.
//
// # Format v7 (chunked container)
//
// The layout is little-endian with every byte outside the checksums
// themselves covered by a CRC32-C:
//
//	magic "RWDOMIDX"
//	header: 10 × uint64 — version, graph fingerprint, n, L, R (total
//	        replicate width), seed, total entries, R0 (first absolute
//	        replicate), graph epoch, chunk count
//	header CRC32-C (uint32, covers magic + header)
//	then per chunk, in replicate order:
//	  sub-header: 3 × uint64 — chunk's first absolute replicate, chunk
//	              width, chunk entries
//	  payload: offsets (width·n+1 × int64), ids (int32), hops (uint16)
//	  chunk CRC32-C (uint32, covers sub-header + payload)
//
// A flat index serializes as a single chunk spanning [R0, R0+R), and a
// single-chunk stream loads back as a flat index, so flat round-trips are
// byte-stable; a multi-chunk stream loads as a chunked index with the same
// chunk boundaries it was written with. Chunks are always written in their
// canonical compact form (never the patched post-Repair layout).
const (
	indexMagic = "RWDOMIDX"
	// indexVersion 2 switched the row order from replicate-major (i·n+v) to
	// candidate-major (v·R+i); version 3 added the build seed to the header
	// so a loader can verify the full build identity (previously only L and
	// R were recoverable, letting a stale or path-colliding spill file
	// impersonate an index built with a different seed); version 4 appended a
	// CRC32-C trailer over the magic, header and payload, so silently
	// corrupted spill files (torn writes, truncation, bit rot) are detected
	// at load time — forcing a rebuild — instead of surviving the structural
	// checks and shifting every served answer; version 5 appended the first
	// replicate number (R0) to the header so a partial index built over a
	// replicate range [r0, r1) round-trips its range identity and a spilled
	// shard slice can never be warm-loaded as a full build (or as a
	// different shard's slice); version 6 appended the graph mutation epoch,
	// so once graphs can change at runtime (graph.ApplyDelta) a spill file
	// written before a mutation is rejected on restart instead of silently
	// serving pre-mutation walks — including when a delta and its inverse
	// leave the structure (and thus the fingerprint) identical but the
	// lineage two epochs newer; version 7 turned the single flat payload into
	// the chunked container documented above (a chunk count in the header,
	// one self-contained payload + CRC per replicate chunk) so chunked
	// indexes — the substrate of adaptive accuracy budgets — spill and
	// warm-load with their chunk boundaries intact, and a corrupt chunk is
	// pinpointed without reading the rest of the file. Older versions are
	// rejected rather than silently misread, forcing a cheap rebuild.
	indexVersion = 7
)

// castagnoli is the CRC32-C polynomial table the checksums use (the same
// checksum iSCSI and ext4 use; hardware-accelerated on amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the index in the v7 chunked container; it implements
// io.WriterTo. A flat index is written as one chunk; a chunked index writes
// one payload per chunk. Patched (post-Repair) chunks are serialized in
// their canonical compacted form, computed on copies — the receiver is not
// mutated.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	parts, err := ix.compactParts()
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	sum := crc32.New(castagnoli)
	cw := io.MultiWriter(bw, sum)
	var written int64
	put := func(data interface{}) error {
		if err := binary.Write(cw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	// putSum writes the running CRC outside the checksummed writer (it
	// covers the preceding section, it is not part of it) and resets it for
	// the next section.
	putSum := func() error {
		if err := binary.Write(bw, binary.LittleEndian, sum.Sum32()); err != nil {
			return err
		}
		written += 4
		sum.Reset()
		return nil
	}
	if _, err := io.WriteString(cw, indexMagic); err != nil {
		return written, fmt.Errorf("index: write header: %w", err)
	}
	written += int64(len(indexMagic))
	var entries uint64
	for _, pt := range parts {
		entries += uint64(len(pt.ids))
	}
	header := []uint64{
		indexVersion,
		ix.g.Fingerprint(),
		uint64(ix.g.N()),
		uint64(ix.l),
		uint64(ix.r),
		ix.seed,
		entries,
		uint64(ix.rbase),
		ix.gepoch,
		uint64(len(parts)),
	}
	for _, h := range header {
		if err := put(h); err != nil {
			return written, fmt.Errorf("index: write header: %w", err)
		}
	}
	if err := putSum(); err != nil {
		return written, fmt.Errorf("index: write header checksum: %w", err)
	}
	for _, pt := range parts {
		for _, h := range []uint64{uint64(pt.rbase), uint64(pt.r), uint64(len(pt.ids))} {
			if err := put(h); err != nil {
				return written, fmt.Errorf("index: write chunk header: %w", err)
			}
		}
		for _, payload := range []interface{}{pt.offsets, pt.ids, pt.hops} {
			if err := put(payload); err != nil {
				return written, fmt.Errorf("index: write payload: %w", err)
			}
		}
		if err := putSum(); err != nil {
			return written, fmt.Errorf("index: write chunk checksum: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("index: flush: %w", err)
	}
	return written, nil
}

// ReadIndex deserializes an index previously written with WriteTo and binds
// it to g. It fails if the stream was built on a different graph (detected
// by fingerprint) or graph epoch, has an unknown version, or fails any of
// its CRC32-C checksums — a truncated or bit-flipped spill file is reported
// as corrupt rather than trusted to the structural checks alone. A
// single-chunk stream loads as a flat index; a multi-chunk stream loads
// chunked with its written boundaries.
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	bufr := bufio.NewReaderSize(r, 1<<20)
	sum := crc32.New(castagnoli)
	br := io.TeeReader(bufr, sum)
	// checkSum reads the section checksum from the underlying reader (it is
	// not itself checksummed) and resets the CRC for the next section.
	checkSum := func(section string) error {
		var want uint32
		if err := binary.Read(bufr, binary.LittleEndian, &want); err != nil {
			return fmt.Errorf("index: read %s checksum: %w", section, err)
		}
		if got := sum.Sum32(); got != want {
			return fmt.Errorf("index: corrupt %s: checksum %08x, want %08x", section, got, want)
		}
		sum.Reset()
		return nil
	}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: read header: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("index: bad magic %q", magic)
	}
	var header [10]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("index: read header: %w", err)
		}
		if i == 0 && header[0] != indexVersion {
			return nil, fmt.Errorf("index: unsupported version %d (want %d)", header[0], indexVersion)
		}
	}
	fp, n, l, rr, seed, entries, rbase, gepoch, chunks := header[1], header[2], header[3], header[4], header[5], header[6], header[7], header[8], header[9]
	if got := g.Fingerprint(); got != fp {
		return nil, fmt.Errorf("index: graph fingerprint mismatch: index built on %016x, loading against %016x", fp, got)
	}
	if got := g.Epoch(); got != gepoch {
		// The fingerprint above cannot catch a delta plus its inverse (the
		// structure round-trips); the monotone epoch can.
		return nil, fmt.Errorf("index: graph epoch mismatch: index built at epoch %d, loading against epoch %d", gepoch, got)
	}
	if int(n) != g.N() {
		return nil, fmt.Errorf("index: node count mismatch: %d vs %d", n, g.N())
	}
	if l > 1<<16-1 || rr == 0 || rr > 1<<31 || rbase > 1<<31 {
		return nil, fmt.Errorf("index: implausible parameters L=%d R=%d R0=%d", l, rr, rbase)
	}
	if chunks == 0 || chunks > rr {
		return nil, fmt.Errorf("index: implausible chunk count %d for R=%d", chunks, rr)
	}
	if int64(entries) > int64(rr)*int64(n)*int64(l) {
		return nil, fmt.Errorf("index: entry count %d exceeds nRL bound %d", entries, int64(rr)*int64(n)*int64(l))
	}
	if err := checkSum("header"); err != nil {
		return nil, err
	}
	parts := make([]*Index, 0, chunks)
	next := rbase
	var total uint64
	for c := uint64(0); c < chunks; c++ {
		var sub [3]uint64
		for i := range sub {
			if err := binary.Read(br, binary.LittleEndian, &sub[i]); err != nil {
				return nil, fmt.Errorf("index: read chunk %d header: %w", c, err)
			}
		}
		c0, width, centries := sub[0], sub[1], sub[2]
		if c0 != next || width == 0 || c0+width > rbase+rr {
			return nil, fmt.Errorf("index: corrupt chunk %d range [%d, %d) (expected start %d within [%d, %d))", c, c0, c0+width, next, rbase, rbase+rr)
		}
		if int64(centries) > int64(width)*int64(n)*int64(l) {
			return nil, fmt.Errorf("index: chunk %d entry count %d exceeds its nRL bound", c, centries)
		}
		rows := int64(width) * int64(n)
		pt := &Index{
			g:       g,
			l:       int(l),
			r:       int(width),
			rbase:   int(c0),
			seed:    seed,
			gepoch:  gepoch,
			offsets: make([]int64, rows+1),
			ids:     make([]int32, centries),
			hops:    make([]uint16, centries),
		}
		for _, payload := range []interface{}{pt.offsets, pt.ids, pt.hops} {
			if err := binary.Read(br, binary.LittleEndian, payload); err != nil {
				return nil, fmt.Errorf("index: read chunk %d payload: %w", c, err)
			}
		}
		if err := checkSum(fmt.Sprintf("chunk %d", c)); err != nil {
			return nil, err
		}
		// Structural validation so corrupted files fail fast, not at query
		// time. (The CRC catches transport corruption; these catch a writer
		// that serialized garbage.)
		if pt.offsets[0] != 0 || pt.offsets[rows] != int64(centries) {
			return nil, fmt.Errorf("index: corrupt chunk %d offsets (start %d, end %d, entries %d)", c, pt.offsets[0], pt.offsets[rows], centries)
		}
		for i := int64(1); i <= rows; i++ {
			if pt.offsets[i] < pt.offsets[i-1] {
				return nil, fmt.Errorf("index: corrupt chunk %d offsets: decrease at row %d", c, i)
			}
		}
		for i, id := range pt.ids {
			if id < 0 || int(id) >= g.N() {
				return nil, fmt.Errorf("index: corrupt chunk %d entry %d: node %d out of range", c, i, id)
			}
			if pt.hops[i] == 0 || int(pt.hops[i]) > int(l) {
				return nil, fmt.Errorf("index: corrupt chunk %d entry %d: hop %d outside [1,%d]", c, i, pt.hops[i], l)
			}
		}
		parts = append(parts, pt)
		next = c0 + width
		total += centries
	}
	if next != rbase+rr {
		return nil, fmt.Errorf("index: chunks cover [%d, %d), header declares [%d, %d)", rbase, next, rbase, rbase+rr)
	}
	if total != entries {
		return nil, fmt.Errorf("index: chunks hold %d entries, header declares %d", total, entries)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &Index{
		g:      g,
		l:      int(l),
		r:      int(rr),
		rbase:  int(rbase),
		seed:   seed,
		gepoch: gepoch,
		parts:  parts,
	}, nil
}

// SaveFile writes the index to a file.
func (ix *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// LoadFile reads an index from a file and binds it to g.
func LoadFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	return ReadIndex(f, g)
}
