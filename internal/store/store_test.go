package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testChunks builds a deterministic multi-chunk CSR fixture: n nodes, chunks
// of the given widths starting at r0, row lengths and entries drawn from a
// seeded RNG with ids ascending (the canonical build layout).
func testChunks(t testing.TB, n, r0 int, widths []int, seed int64) (Identity, []Chunk) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	const L = 9
	id := Identity{Fingerprint: 0xfeedface, Epoch: 3, N: n, L: L, R0: r0, Seed: 42}
	var chunks []Chunk
	next := r0
	for _, w := range widths {
		rows := w * n
		ch := Chunk{R0: next, Width: w, Offsets: make([]int64, rows+1)}
		for k := 0; k < rows; k++ {
			ch.Offsets[k+1] = ch.Offsets[k]
			rowLen := rnd.Intn(5)
			if rowLen > n {
				rowLen = n
			}
			perm := rnd.Perm(n)[:rowLen]
			ids := make([]int, rowLen)
			copy(ids, perm)
			// ascending ids, like the build emits
			for i := 1; i < len(ids); i++ {
				for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				}
			}
			for _, v := range ids {
				ch.Ids = append(ch.Ids, int32(v))
				ch.Hops = append(ch.Hops, uint16(1+rnd.Intn(L)))
				ch.Offsets[k+1]++
			}
		}
		id.Entries += int64(len(ch.Ids))
		id.R += w
		next += w
		chunks = append(chunks, ch)
	}
	return id, chunks
}

func writeTemp(t *testing.T, id Identity, chunks []Chunk, opts WriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.rwdomidx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Write(f, id, chunks, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// expectChunk checks a view serves exactly the source chunk's rows.
func expectChunk(t *testing.T, f *File, c int, want Chunk, n int) {
	t.Helper()
	cv := f.Chunk(c)
	if cv.R0() != want.R0 || cv.Width() != want.Width || cv.Entries() != int64(len(want.Ids)) {
		t.Fatalf("chunk %d meta (%d, %d, %d), want (%d, %d, %d)",
			c, cv.R0(), cv.Width(), cv.Entries(), want.R0, want.Width, len(want.Ids))
	}
	if cv.Compressed() {
		sp := cv.Spans()
		for u := 0; u < n; u++ {
			offs, ids, hops := sp.NodeSpan(u)
			base := int64(u) * int64(want.Width)
			for i := 0; i < want.Width; i++ {
				lo, hi := want.Offsets[base+int64(i)], want.Offsets[base+int64(i)+1]
				if !reflect.DeepEqual(append([]int32{}, ids[offs[i]:offs[i+1]]...), append([]int32{}, want.Ids[lo:hi]...)) {
					t.Fatalf("chunk %d node %d row %d ids mismatch", c, u, i)
				}
				if !reflect.DeepEqual(append([]uint16{}, hops[offs[i]:offs[i+1]]...), append([]uint16{}, want.Hops[lo:hi]...)) {
					t.Fatalf("chunk %d node %d row %d hops mismatch", c, u, i)
				}
			}
		}
	} else {
		offsets, ids, hops := cv.Raw()
		if !reflect.DeepEqual(append([]int64{}, offsets...), want.Offsets) {
			t.Fatalf("chunk %d raw offsets mismatch", c)
		}
		if len(want.Ids) != 0 && (!reflect.DeepEqual(append([]int32{}, ids...), want.Ids) || !reflect.DeepEqual(append([]uint16{}, hops...), want.Hops)) {
			t.Fatalf("chunk %d raw entries mismatch", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, mmap := range []bool{false, true} {
			id, chunks := testChunks(t, 60, 5, []int{4, 4, 3}, 1)
			path := writeTemp(t, id, chunks, WriteOptions{Compress: compress})
			f, err := Open(path, OpenOptions{Mmap: mmap})
			if err != nil {
				t.Fatalf("compress=%v mmap=%v: Open: %v", compress, mmap, err)
			}
			if f.Identity() != id {
				t.Fatalf("identity %+v, want %+v", f.Identity(), id)
			}
			if f.Chunks() != len(chunks) {
				t.Fatalf("%d chunks, want %d", f.Chunks(), len(chunks))
			}
			for c, ch := range chunks {
				expectChunk(t, f, c, ch, id.N)
			}
			if mmap != f.Mapped() {
				t.Fatalf("Mapped() = %v, want %v", f.Mapped(), mmap)
			}
			if mmap && f.MappedBytes() == 0 {
				t.Fatal("mapped file reports 0 mapped bytes")
			}
		}
	}
}

func TestCompressedSmallerThanRaw(t *testing.T) {
	id, chunks := testChunks(t, 200, 0, []int{16}, 2)
	raw := writeTemp(t, id, chunks, WriteOptions{})
	comp := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	ri, _ := os.Stat(raw)
	ci, _ := os.Stat(comp)
	if ci.Size() >= ri.Size() {
		t.Fatalf("compressed %d bytes >= raw %d bytes", ci.Size(), ri.Size())
	}
}

// TestWriterSortsUnsortedRows pins the canonicalization: the atomic-fallback
// build path may emit rows out of source order; the compressed writer must
// sort them (delta coding needs ascending ids) and serve the same multiset.
func TestWriterSortsUnsortedRows(t *testing.T) {
	id := Identity{Fingerprint: 1, N: 5, L: 4, R: 1, Seed: 9, Entries: 3}
	ch := Chunk{
		Width:   1,
		Offsets: []int64{0, 3, 3, 3, 3, 3},
		Ids:     []int32{4, 1, 2},
		Hops:    []uint16{2, 3, 1},
	}
	path := writeTemp(t, id, []Chunk{ch}, WriteOptions{Compress: true})
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offs, ids, hops := f.Chunk(0).Spans().NodeSpan(0)
	if offs[1]-offs[0] != 3 {
		t.Fatalf("row length %d, want 3", offs[1]-offs[0])
	}
	wantIds := []int32{1, 2, 4}
	wantHops := []uint16{3, 1, 2}
	for e := 0; e < 3; e++ {
		if ids[e] != wantIds[e] || hops[e] != wantHops[e] {
			t.Fatalf("entry %d = (%d, %d), want (%d, %d)", e, ids[e], hops[e], wantIds[e], wantHops[e])
		}
	}
}

func TestHotRowCacheCounters(t *testing.T) {
	id, chunks := testChunks(t, 40, 0, []int{6}, 3)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	f, err := Open(path, OpenOptions{Mmap: true, HotRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Chunk(0).Spans()
	sp.NodeSpan(7)
	sp.NodeSpan(7)
	sp.NodeSpan(7)
	st := f.Stats()
	if st.DecodeMisses != 1 || st.DecodeHits != 2 {
		t.Fatalf("stats %+v, want 1 miss + 2 hits", st)
	}

	// Caching disabled: every read decodes.
	f2, err := Open(path, OpenOptions{HotRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	sp2 := f2.Chunk(0).Spans()
	sp2.NodeSpan(7)
	sp2.NodeSpan(7)
	if st := f2.Stats(); st.DecodeMisses != 2 || st.DecodeHits != 0 {
		t.Fatalf("uncached stats %+v, want 2 misses", st)
	}
}

func TestMaterializeMatchesSource(t *testing.T) {
	id, chunks := testChunks(t, 50, 0, []int{7}, 4)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	f, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offsets, ids, hops, err := f.Chunk(0).Spans().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offsets, chunks[0].Offsets) {
		t.Fatal("materialized offsets mismatch")
	}
	if !reflect.DeepEqual(ids, chunks[0].Ids) || !reflect.DeepEqual(hops, chunks[0].Hops) {
		t.Fatal("materialized entries mismatch")
	}
}

func TestConcurrentNodeSpan(t *testing.T) {
	id, chunks := testChunks(t, 128, 0, []int{8}, 5)
	path := writeTemp(t, id, chunks, WriteOptions{Compress: true})
	f, err := Open(path, OpenOptions{Mmap: true, HotRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Chunk(0).Spans()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for iter := 0; iter < 200; iter++ {
				u := (g*37 + iter) % id.N
				offs, ids, _ := sp.NodeSpan(u)
				if int64(len(ids)) != offs[len(offs)-1] {
					t.Errorf("node %d: %d ids, offs end %d", u, len(ids), offs[len(offs)-1])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := f.Stats(); st.DecodeErrors != 0 {
		t.Fatalf("decode errors: %+v", st)
	}
}

func TestWriteRejectsBadChunks(t *testing.T) {
	id, chunks := testChunks(t, 20, 0, []int{2, 2}, 6)
	bad := make([]Chunk, len(chunks))
	copy(bad, chunks)
	bad[1].R0 = 5 // gap
	if _, err := Write(discard{}, id, bad, WriteOptions{}); err == nil {
		t.Fatal("gap in chunk ranges accepted")
	}
	short := chunks[0]
	short.Offsets = short.Offsets[:len(short.Offsets)-1]
	if _, err := Write(discard{}, id, []Chunk{short}, WriteOptions{}); err == nil {
		t.Fatal("short offsets accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
