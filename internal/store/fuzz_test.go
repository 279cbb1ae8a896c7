package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// reseal returns a copy of data with the header, directory and section
// CRC32-Cs recomputed wherever the (possibly mutated) directory makes them
// locatable, so a fuzzed mutation gets past the checksums and reaches the
// structural validation behind them.
func reseal(data []byte) []byte {
	b := append([]byte(nil), data...)
	if len(b) < headerSize {
		return b
	}
	hdrEnd := len(Magic) + headerWords*8
	chunks := binary.LittleEndian.Uint64(b[len(Magic)+9*8:])
	dirOff := uint64(headerSize)
	if chunks <= uint64(len(b))/dirEntrySize && dirOff+chunks*dirEntrySize+4 <= uint64(len(b)) {
		dirEnd := dirOff + chunks*dirEntrySize
		for c := uint64(0); c < chunks; c++ {
			e := b[dirOff+c*dirEntrySize:]
			for s := 0; s < 3; s++ {
				off := binary.LittleEndian.Uint64(e[(4+s*3)*8:])
				sz := binary.LittleEndian.Uint64(e[(4+s*3+1)*8:])
				if off <= uint64(len(b)) && sz <= uint64(len(b))-off {
					binary.LittleEndian.PutUint64(e[(4+s*3+2)*8:], uint64(crc32.Checksum(b[off:off+sz], castagnoli)))
				}
			}
		}
		binary.LittleEndian.PutUint32(b[dirEnd:], crc32.Checksum(b[dirOff:dirEnd], castagnoli))
	}
	binary.LittleEndian.PutUint32(b[hdrEnd:], crc32.Checksum(b[:hdrEnd], castagnoli))
	return b
}

// checkCSR fails t unless offsets is a monotone CSR over rows rows ending at
// len(ids) == len(hops), with every id in [0,n) and every hop in [1,L].
func checkCSR(t *testing.T, what string, offsets []int64, ids []int32, hops []uint16, rows, n, L int) {
	t.Helper()
	if len(offsets) != rows+1 || offsets[0] != 0 || offsets[rows] != int64(len(ids)) || len(hops) != len(ids) {
		t.Fatalf("%s: %d offsets (want %d) from %d to %d over %d ids, %d hops", what, len(offsets), rows+1, offsets[0], offsets[len(offsets)-1], len(ids), len(hops))
	}
	for i := 1; i <= rows; i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatalf("%s: offsets decrease at row %d", what, i)
		}
	}
	for i, id := range ids {
		if id < 0 || int(id) >= n || hops[i] == 0 || int(hops[i]) > L {
			t.Fatalf("%s: entry %d = (id %d, hop %d) outside [0,%d) x [1,%d]", what, i, id, hops[i], n, L)
		}
	}
}

// FuzzStoreOpen asserts the v8 reader never panics and never accepts a file
// whose contents would break a consumer. Each input is tried as-is and
// resealed (see reseal), under both the heap and the mmap read paths: Open
// either fails, or every raw chunk is an in-bounds CSR; Materialize either
// fails with ErrMalformed or returns an in-bounds CSR; and NodeSpan serves
// an in-bounds block for every node.
func FuzzStoreOpen(f *testing.F) {
	id, chunks := testChunks(f, 20, 2, []int{2, 3}, 11)
	var files [][]byte
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if _, err := Write(&buf, id, chunks, WriteOptions{Compress: compress, PageSize: 512}); err != nil {
			f.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	raw, compressed := files[0], files[1]
	f.Add(raw)
	f.Add(compressed)
	f.Add(raw[:len(raw)/2])
	f.Add(compressed[:len(compressed)/2])
	f.Add([]byte("RWDOMIDX garbage"))
	f.Add([]byte{})
	// A few single-byte corruptions: the version word, the header's n, and
	// the first directory entry's first replicate.
	for _, pos := range []int{8, 8 + 3*8, headerSize} {
		mut := append([]byte(nil), compressed...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}
	// One scratch file per fuzzing process: inputs run one at a time.
	path := filepath.Join(f.TempDir(), "in.rwdomidx")
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if sealed := reseal(data); !bytes.Equal(sealed, data) {
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			// Both read paths parse the same bytes, so the mapped one only
			// needs checking when the heap one accepts them.
			if checkOpen(t, path, false) {
				checkOpen(t, path, true)
			}
		}
	})
}

// checkOpen opens path and, if Open accepts it, checks every chunk's
// contents against the bounds its identity declares. It reports whether
// Open accepted the file.
func checkOpen(t *testing.T, path string, mmap bool) bool {
	f, err := Open(path, OpenOptions{Mmap: mmap})
	if err != nil {
		return false
	}
	id := f.Identity()
	for c := 0; c < f.Chunks(); c++ {
		cv := f.Chunk(c)
		rows := cv.Width() * id.N
		if !cv.Compressed() {
			offsets, ids, hops := cv.Raw()
			checkCSR(t, "raw chunk", offsets, ids, hops, rows, id.N, id.L)
			continue
		}
		sp := cv.Spans()
		offsets, ids, hops, err := sp.Materialize()
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("Materialize: %v, want ErrMalformed", err)
			}
		} else {
			checkCSR(t, "materialized chunk", offsets, ids, hops, rows, id.N, id.L)
		}
		for u := 0; u < id.N; u++ {
			offs, ids, hops := sp.NodeSpan(u)
			checkCSR(t, "node span", offs, ids, hops, cv.Width(), id.N, id.L)
		}
	}
	return true
}
