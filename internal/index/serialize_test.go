package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// loadBytes writes data to a temp file and loads it with LoadAny.
func loadBytes(t testing.TB, data []byte, g *graph.Graph) (*Index, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.rwdomidx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadAny(path, g, StoreOptions{})
}

func TestIndexRoundTrip(t *testing.T) {
	g, _ := graph.BarabasiAlbert(200, 3, 7)
	orig, err := Build(g, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteStore(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteStore reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := loadBytes(t, buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	if back.L() != orig.L() || back.R() != orig.R() || back.Entries() != orig.Entries() {
		t.Fatalf("metadata mismatch after round trip")
	}
	if back.Seed() != 42 {
		t.Fatalf("seed after round trip = %d, want 42", back.Seed())
	}
	for i := range orig.ids {
		if orig.ids[i] != back.ids[i] || orig.hops[i] != back.hops[i] {
			t.Fatal("payload mismatch after round trip")
		}
	}
	// The loaded index must behave identically in a greedy run.
	d1, _ := orig.NewDTable(Problem1)
	d2, _ := back.NewDTable(Problem1)
	for _, u := range []int{3, 77, 150} {
		if d1.Gain(u) != d2.Gain(u) {
			t.Fatalf("gain mismatch at %d", u)
		}
		d1.Update(u)
		d2.Update(u)
	}
}

func TestIndexFileRoundTrip(t *testing.T) {
	g, _ := graph.BarabasiAlbert(100, 2, 9)
	orig, _ := Build(g, 4, 5, 1)
	path := filepath.Join(t.TempDir(), "walks.idx")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAny(path, g, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Entries() != orig.Entries() {
		t.Fatal("file round trip lost entries")
	}
	if _, err := LoadAny(filepath.Join(t.TempDir(), "missing.idx"), g, StoreOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadAgainstWrongGraphRejected(t *testing.T) {
	g1, _ := graph.BarabasiAlbert(100, 2, 1)
	g2, _ := graph.BarabasiAlbert(100, 2, 2) // same size, different structure
	ix, _ := Build(g1, 4, 5, 1)
	var buf bytes.Buffer
	if _, err := ix.WriteStore(&buf, true); err != nil {
		t.Fatal(err)
	}
	_, err := loadBytes(t, buf.Bytes(), g2)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("wrong-graph load: got %v, want fingerprint mismatch", err)
	}
	// A file whose identity claims g1's fingerprint and epoch but one more
	// node must still be rejected: the node-count check is the last line
	// of defence behind the fingerprint.
	const width = 1
	rows := width * (g1.N() + 1)
	buf.Reset()
	id := store.Identity{Fingerprint: g1.Fingerprint(), Epoch: g1.Epoch(), N: g1.N() + 1, L: 4, R: width, Seed: 1}
	chunks := []store.Chunk{{Width: width, Offsets: make([]int64, rows+1)}}
	if _, err := store.Write(&buf, id, chunks, store.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = loadBytes(t, buf.Bytes(), g1)
	if err == nil || !strings.Contains(err.Error(), "node count") {
		t.Fatalf("wrong-node-count load: got %v, want node count mismatch", err)
	}
}

func TestCorruptStreamsRejected(t *testing.T) {
	g, _ := graph.BarabasiAlbert(50, 2, 3)
	ix, _ := Build(g, 3, 4, 5)
	var buf bytes.Buffer
	if _, err := ix.WriteStore(&buf, false); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := loadBytes(t, bad, g); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), raw...)
	bad[8] = 99
	if _, err := loadBytes(t, bad, g); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated payload.
	if _, err := loadBytes(t, raw[:len(raw)/2], g); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupted entry: overwrite a node id in the raw ids section with an
	// out-of-range value. Sections start on page boundaries: offsets
	// ((rows+1) int64) at the first page after the header, ids at the next
	// page boundary after them.
	const page = store.DefaultPageSize
	offsetsSize := (ix.R()*g.N() + 1) * 8
	idsStart := page + (offsetsSize+page-1)/page*page
	if idsStart+4 < len(raw) {
		bad = append([]byte(nil), raw...)
		bad[idsStart] = 0xFF
		bad[idsStart+1] = 0xFF
		bad[idsStart+2] = 0xFF
		bad[idsStart+3] = 0x7F // id = MaxInt32: out of range
		if _, err := loadBytes(t, bad, g); err == nil {
			t.Error("corrupt node id accepted")
		}
	}
	// Empty stream.
	if _, err := loadBytes(t, nil, g); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestBuildWorkersEquivalence(t *testing.T) {
	// The parallel builder must produce semantically identical indexes for
	// any worker count: same per-row entry multisets, hence identical gains
	// and selections at every greedy stage.
	g, _ := graph.BarabasiAlbert(150, 3, 11)
	const L, R = 5, 8
	seq, err := BuildWorkers(g, L, R, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildWorkers(g, L, R, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Entries() != par.Entries() {
		t.Fatalf("entry counts differ: %d vs %d", seq.Entries(), par.Entries())
	}
	dSeq, _ := seq.NewDTable(Problem1)
	dPar, _ := par.NewDTable(Problem1)
	picks := []int{10, 42, 99, 3}
	for _, u := range picks {
		for probe := 0; probe < g.N(); probe += 13 {
			if gs, gp := dSeq.Gain(probe), dPar.Gain(probe); gs != gp {
				t.Fatalf("gain(%d) differs after %d updates: %v vs %v", probe, dSeq.Size(), gs, gp)
			}
		}
		dSeq.Update(u)
		dPar.Update(u)
	}
	// Problem 2 as well.
	d2Seq, _ := seq.NewDTable(Problem2)
	d2Par, _ := par.NewDTable(Problem2)
	for probe := 0; probe < g.N(); probe += 7 {
		if gs, gp := d2Seq.Gain(probe), d2Par.Gain(probe); gs != gp {
			t.Fatalf("P2 gain(%d) differs: %v vs %v", probe, gs, gp)
		}
	}
}

func TestBuildWorkersDegenerate(t *testing.T) {
	g, _ := graph.Path(5)
	// workers > n and workers < 1 are both clamped.
	a, err := BuildWorkers(g, 3, 2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkers(g, 3, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries() != b.Entries() {
		t.Fatal("clamped worker counts disagree")
	}
}
