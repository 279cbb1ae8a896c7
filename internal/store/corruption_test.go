package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// readChunkData loads every chunk's logical content for equality checks: the
// corruption sweep accepts a flip either failing Open or landing in padding
// (bytes no reader ever consumes), in which case the served data must be
// identical.
func readChunkData(t *testing.T, f *File) [][]byte {
	t.Helper()
	var out [][]byte
	for c := 0; c < f.Chunks(); c++ {
		cv := f.Chunk(c)
		if cv.Compressed() {
			offsets, ids, hops, err := cv.Spans().Materialize()
			if err != nil {
				t.Fatalf("materialize chunk %d: %v", c, err)
			}
			out = append(out, append([]byte{}, int64Bytes(offsets)...), append([]byte{}, int32Bytes(ids)...), append([]byte{}, uint16Bytes(hops)...))
		} else {
			offsets, ids, hops := cv.Raw()
			out = append(out, append([]byte{}, int64Bytes(offsets)...), append([]byte{}, int32Bytes(ids)...), append([]byte{}, uint16Bytes(hops)...))
		}
	}
	return out
}

func equalData(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}

// TestOpenRejectsBitFlips sweeps a single-bit flip across the file: every
// flip must either fail Open (CRC or structural check) or — when it lands in
// inter-section padding, which no CRC covers because no reader consumes it —
// leave every served byte identical. A flip that opens AND changes data
// would be the silent-wrong-answer failure mode the format exists to
// prevent.
func TestOpenRejectsBitFlips(t *testing.T) {
	for _, compress := range []bool{false, true} {
		id, chunks := testChunks(t, 30, 0, []int{3, 2}, 7)
		path := writeTemp(t, id, chunks, WriteOptions{Compress: compress})
		pristine, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := readChunkData(t, pristine)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		step := len(blob)/96 + 1
		for off := 0; off < len(blob); off += step {
			corrupt := append([]byte{}, blob...)
			corrupt[off] ^= 0x10
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := Open(path, OpenOptions{})
			if err != nil {
				continue // detected: the required outcome for covered bytes
			}
			if !equalData(want, readChunkData(t, f)) {
				t.Fatalf("compress=%v: flip at byte %d opened cleanly but changed served data", compress, off)
			}
		}
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	id, chunks := testChunks(t, 30, 0, []int{4}, 8)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 7, headerSize - 1, headerSize + 10, len(blob) / 2, len(blob) - 1} {
		if err := os.WriteFile(path, blob[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, OpenOptions{Mmap: true}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", keep)
		}
	}
}

// TestOpenRejectsStaleDirectory tampers with the section directory itself —
// swapping two section offsets and recomputing the directory CRC, so only
// the section-level validation can catch the mismatch between the directory
// and the payloads it points at.
func TestOpenRejectsStaleDirectory(t *testing.T) {
	id, chunks := testChunks(t, 30, 0, []int{4}, 9)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Directory entry 0: words 4..6 are section 0 (off, size, crc), words
	// 7..9 section 1. Point section 0 at section 1's range.
	dirOff := headerSize
	e := blob[dirOff:]
	off1 := binary.LittleEndian.Uint64(e[7*8:])
	size1 := binary.LittleEndian.Uint64(e[8*8:])
	binary.LittleEndian.PutUint64(e[4*8:], off1)
	binary.LittleEndian.PutUint64(e[5*8:], size1)
	dirSize := 1 * dirEntrySize
	sum := crc32.Checksum(blob[dirOff:dirOff+dirSize], castagnoli)
	binary.LittleEndian.PutUint32(blob[dirOff+dirSize:], sum)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{}); err == nil {
		t.Fatal("stale directory (swapped section ranges) accepted")
	}
}

func TestOpenRejectsWrongMagic(t *testing.T) {
	id, chunks := testChunks(t, 10, 0, []int{1}, 10)
	path := writeTemp(t, id, chunks, WriteOptions{})
	blob, _ := os.ReadFile(path)
	copy(blob, "RWDOMIDX") // the v7 magic
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{}); err == nil {
		t.Fatal("v7 magic accepted by the v8 reader")
	}
}

// TestOpenRejectsImplausibleRowCount gives a compressed file a CRC-valid
// header and directory claiming a chunk far wider than the file could
// hold: Open must fail before sizing anything from the claim (the chunk's
// empty fallback span alone holds width+1 offsets).
func TestOpenRejectsImplausibleRowCount(t *testing.T) {
	id, chunks := testChunks(t, 10, 0, []int{1}, 12)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const width = 1 << 24
	binary.LittleEndian.PutUint64(blob[len(Magic)+5*8:], width) // header R
	binary.LittleEndian.PutUint64(blob[headerSize+8:], width)   // chunk 0 width
	if err := os.WriteFile(path, reseal(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{}); err == nil {
		t.Fatal("a chunk of 2^24 replicates in a one-page file was accepted")
	}
}
