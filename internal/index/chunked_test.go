package index

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/graph"
)

// chunkCases covers the chunk-boundary degeneracies: an even split, a ragged
// last chunk (R % C != 0), R < C (one short chunk), a single exact chunk
// (C == R), and one-replicate chunks (C == 1).
var chunkCases = []struct {
	name     string
	R, chunk int
}{
	{"even", 12, 4},
	{"ragged", 10, 3},
	{"r_lt_c", 4, 16},
	{"single", 8, 8},
	{"unit", 6, 1},
}

// TestChunkedBitParity pins the tentpole invariant: a chunked index answers
// every query — gains, empty-set gains, objectives, greedy selections —
// bit-identically to the flat build of the same total width, for both
// problems, at every chunk-boundary degeneracy and worker count.
func TestChunkedBitParity(t *testing.T) {
	g, _ := graph.BarabasiAlbert(150, 3, 11)
	const L = 5
	for _, tc := range chunkCases {
		for _, workers := range []int{1, 4} {
			flat, err := BuildWorkers(g, L, tc.R, 42, workers)
			if err != nil {
				t.Fatal(err)
			}
			chk, err := BuildChunkedWorkers(g, L, tc.R, 42, tc.chunk, workers)
			if err != nil {
				t.Fatal(err)
			}
			wantChunks := (tc.R + tc.chunk - 1) / tc.chunk
			if !chk.Chunked() || chk.Chunks() != wantChunks {
				t.Fatalf("%s/w%d: Chunks() = %d, want %d", tc.name, workers, chk.Chunks(), wantChunks)
			}
			if chk.R() != flat.R() || chk.Entries() != flat.Entries() {
				t.Fatalf("%s/w%d: R/Entries mismatch: %d/%d vs %d/%d", tc.name, workers, chk.R(), chk.Entries(), flat.R(), flat.Entries())
			}
			for _, p := range []Problem{Problem1, Problem2} {
				fe, _ := flat.EmptySetGains(p)
				ce, _ := chk.EmptySetGains(p)
				for u := range fe {
					if fe[u] != ce[u] {
						t.Fatalf("%s/w%d/%v: empty-set gain mismatch at %d: %v vs %v", tc.name, workers, p, u, fe[u], ce[u])
					}
				}
				ft, _ := flat.NewDTable(p)
				ct, _ := chk.NewDTable(p)
				members := make([]bool, g.N())
				for round := 0; round < 4; round++ {
					best, bestGain := -1, 0.0
					for u := 0; u < g.N(); u++ {
						if members[u] {
							continue
						}
						fg, cg := ft.Gain(u), ct.Gain(u)
						if fg != cg {
							t.Fatalf("%s/w%d/%v: gain mismatch at %d round %d: %v vs %v", tc.name, workers, p, u, round, fg, cg)
						}
						if best < 0 || fg > bestGain {
							best, bestGain = u, fg
						}
					}
					if fo, co := ft.EstimateObjective(members), ct.EstimateObjective(members); fo != co {
						t.Fatalf("%s/w%d/%v: objective mismatch round %d: %v vs %v", tc.name, workers, p, round, fo, co)
					}
					if fs, cs := ft.ObjectiveSum(members), ct.ObjectiveSum(members); fs != cs {
						t.Fatalf("%s/w%d/%v: objective sum mismatch round %d: %d vs %d", tc.name, workers, p, round, fs, cs)
					}
					ft.Update(best)
					ct.Update(best)
					members[best] = true
				}
			}
		}
	}
}

// TestChunkedRows pins that Row delegates to the owning chunk: every
// (replicate, node) row matches the flat build entry for entry.
func TestChunkedRows(t *testing.T) {
	g, _ := graph.BarabasiAlbert(60, 2, 3)
	flat, _ := BuildWorkers(g, 4, 10, 7, 2)
	chk, _ := BuildChunkedWorkers(g, 4, 10, 7, 3, 2)
	for i := 0; i < 10; i++ {
		for v := 0; v < g.N(); v++ {
			fi, fh := flat.Row(i, v)
			ci, ch := chk.Row(i, v)
			if len(fi) != len(ci) {
				t.Fatalf("row (%d, %d): %d vs %d entries", i, v, len(fi), len(ci))
			}
			for e := range fi {
				if fi[e] != ci[e] || fh[e] != ch[e] {
					t.Fatalf("row (%d, %d) entry %d mismatch", i, v, e)
				}
			}
		}
	}
}

// TestExtendReplicatesParity pins lazy growth: a chunked index extended in
// uneven steps answers exactly as a from-scratch build of the final width,
// and D-tables follow along via SyncChunks replaying their history.
func TestExtendReplicatesParity(t *testing.T) {
	g, _ := graph.BarabasiAlbert(120, 3, 5)
	const L, R = 5, 11
	for _, p := range []Problem{Problem1, Problem2} {
		full, _ := BuildWorkers(g, L, R, 9, 2)
		ref, _ := full.NewDTable(p)
		chk, err := BuildChunkedWorkers(g, L, 3, 9, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		ct, _ := chk.NewDTable(p)
		// Select two nodes at the narrow width, then grow 3 → 7 → 11.
		ref.Update(1)
		ref.Update(17)
		ct.Update(1)
		ct.Update(17)
		for _, step := range []int{4, 4} {
			if err := chk.ExtendReplicates(step, 2); err != nil {
				t.Fatal(err)
			}
			if err := ct.SyncChunks(); err != nil {
				t.Fatal(err)
			}
		}
		if chk.R() != R || chk.Chunks() != 3 {
			t.Fatalf("after extension: R = %d chunks = %d, want %d/3", chk.R(), chk.Chunks(), R)
		}
		for u := 0; u < g.N(); u++ {
			if rg, cg := ref.Gain(u), ct.Gain(u); rg != cg {
				t.Fatalf("%v: gain mismatch at %d after extension: %v vs %v", p, u, rg, cg)
			}
		}
		members := make([]bool, g.N())
		members[1], members[17] = true, true
		if ro, co := ref.EstimateObjective(members), ct.EstimateObjective(members); ro != co {
			t.Fatalf("%v: objective mismatch after extension: %v vs %v", p, ro, co)
		}
	}
}

// TestExtendReplicatesErrors pins the extension contract: flat indexes and
// non-positive widths are rejected.
func TestExtendReplicatesErrors(t *testing.T) {
	g, _ := graph.BarabasiAlbert(40, 2, 1)
	flat, _ := Build(g, 3, 4, 2)
	if err := flat.ExtendReplicates(2, 1); err == nil {
		t.Fatal("ExtendReplicates on a flat index accepted")
	}
	chk, _ := BuildChunkedWorkers(g, 3, 4, 2, 2, 1)
	if err := chk.ExtendReplicates(0, 1); err == nil {
		t.Fatal("zero-width extension accepted")
	}
}

// TestAppendReplicateGainSums pins the CI sampling primitive: one value per
// materialized replicate, summing exactly to the integer gain, identical
// between flat and chunked layouts.
func TestAppendReplicateGainSums(t *testing.T) {
	g, _ := graph.BarabasiAlbert(80, 3, 13)
	flat, _ := BuildWorkers(g, 4, 9, 21, 2)
	chk, _ := BuildChunkedWorkers(g, 4, 9, 21, 4, 2)
	for _, p := range []Problem{Problem1, Problem2} {
		ft, _ := flat.NewDTable(p)
		ct, _ := chk.NewDTable(p)
		ft.Update(5)
		ct.Update(5)
		for _, u := range []int{0, 5, 12, 79} {
			fs := ft.AppendReplicateGainSums(u, nil)
			cs := ct.AppendReplicateGainSums(u, nil)
			if len(fs) != 9 || len(cs) != 9 {
				t.Fatalf("%v: %d/%d samples, want 9", p, len(fs), len(cs))
			}
			var sum int64
			for i := range fs {
				if fs[i] != cs[i] {
					t.Fatalf("%v: sample %d of node %d differs: %d vs %d", p, i, u, fs[i], cs[i])
				}
				sum += fs[i]
			}
			if sum != ft.gainInt(u) {
				t.Fatalf("%v: samples sum to %d, gainInt is %d", p, sum, ft.gainInt(u))
			}
		}
	}
}

// TestMaxRowLenParity pins the CI range bound across layouts.
func TestMaxRowLenParity(t *testing.T) {
	g, _ := graph.BarabasiAlbert(70, 3, 17)
	flat, _ := BuildWorkers(g, 5, 8, 4, 1)
	chk, _ := BuildChunkedWorkers(g, 5, 8, 4, 3, 1)
	for u := 0; u < g.N(); u++ {
		if fm, cm := flat.MaxRowLen(u), chk.MaxRowLen(u); fm != cm {
			t.Fatalf("MaxRowLen(%d): %d vs %d", u, fm, cm)
		}
	}
}

// TestChunkedSerializeRoundTrip pins the chunked store container: a chunked
// index round-trips with its chunk boundaries intact and identical answers,
// and a flat index still loads back flat, in both the raw and compressed
// encodings.
func TestChunkedSerializeRoundTrip(t *testing.T) {
	g, _ := graph.BarabasiAlbert(90, 3, 19)
	chk, _ := BuildChunkedWorkers(g, 4, 10, 33, 4, 2)
	flat, _ := Build(g, 4, 10, 33)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		nw, err := chk.WriteStore(&buf, compress)
		if err != nil {
			t.Fatal(err)
		}
		if nw != int64(buf.Len()) {
			t.Fatalf("WriteStore reported %d bytes, buffer has %d", nw, buf.Len())
		}
		back, err := loadBytes(t, buf.Bytes(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Chunked() || back.Chunks() != 3 || back.R() != 10 || back.Entries() != chk.Entries() {
			t.Fatalf("compress=%v: round trip lost chunk structure: chunks = %d R = %d", compress, back.Chunks(), back.R())
		}
		for c := 0; c < chk.Chunks(); c++ {
			if got, want := back.parts[c].rbase, chk.parts[c].rbase; got != want {
				t.Fatalf("compress=%v: chunk %d starts at replicate %d, want %d", compress, c, got, want)
			}
		}
		for _, p := range []Problem{Problem1, Problem2} {
			a, _ := chk.NewDTable(p)
			b, _ := back.NewDTable(p)
			for _, u := range []int{0, 7, 44, 89} {
				if a.Gain(u) != b.Gain(u) {
					t.Fatalf("compress=%v %v: gain mismatch at %d after round trip", compress, p, u)
				}
				a.Update(u)
				b.Update(u)
			}
		}
		buf.Reset()
		if _, err := flat.WriteStore(&buf, compress); err != nil {
			t.Fatal(err)
		}
		fb, err := loadBytes(t, buf.Bytes(), g)
		if err != nil {
			t.Fatal(err)
		}
		if fb.Chunked() {
			t.Fatalf("compress=%v: flat index loaded back chunked", compress)
		}
	}
}

// TestChunkedCorruptChunkRejected flips one payload byte of a middle chunk
// and expects the per-section CRC to report it.
func TestChunkedCorruptChunkRejected(t *testing.T) {
	g, _ := graph.BarabasiAlbert(60, 2, 23)
	chk, _ := BuildChunkedWorkers(g, 4, 9, 3, 3, 1)
	var buf bytes.Buffer
	if _, err := chk.WriteStore(&buf, false); err != nil {
		t.Fatal(err)
	}
	// Chunk 1's directory entry follows the 108-byte header and chunk 0's
	// 104-byte entry; its word 7 is the byte offset of the chunk's ids
	// section.
	bad := append([]byte(nil), buf.Bytes()...)
	idsOff := binary.LittleEndian.Uint64(bad[108+104+7*8:])
	bad[idsOff] ^= 0x10
	if _, err := loadBytes(t, bad, g); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
}

// TestChunkedRepairParity pins incremental repair across chunks: repairing a
// chunked index after a graph delta answers exactly as a fresh chunked (and
// flat) build against the mutated graph.
func TestChunkedRepairParity(t *testing.T) {
	g, _ := graph.BarabasiAlbert(100, 3, 29)
	chk, err := BuildChunkedWorkers(g, 5, 10, 77, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ng, touched, err := g.ApplyDelta(graph.Delta{
		AddEdges:    []graph.Edge{{U: 3, V: 90}, {U: 50, V: 51}},
		RemoveEdges: []graph.Edge{{U: 0, V: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Repair(ng, touched); err != nil {
		t.Fatal(err)
	}
	if chk.GraphEpoch() != ng.Epoch() {
		t.Fatalf("epoch after repair = %d, want %d", chk.GraphEpoch(), ng.Epoch())
	}
	rebuiltChk, _ := BuildChunkedWorkers(ng, 5, 10, 77, 4, 2)
	rebuiltFlat, _ := BuildWorkers(ng, 5, 10, 77, 2)
	for _, p := range []Problem{Problem1, Problem2} {
		a, _ := chk.NewDTable(p)
		b, _ := rebuiltChk.NewDTable(p)
		c, _ := rebuiltFlat.NewDTable(p)
		for u := 0; u < ng.N(); u++ {
			if a.Gain(u) != b.Gain(u) || a.Gain(u) != c.Gain(u) {
				t.Fatalf("%v: repaired gain at %d diverges from rebuild", p, u)
			}
		}
		a.Update(42)
		b.Update(42)
		c.Update(42)
		members := make([]bool, ng.N())
		members[42] = true
		if a.EstimateObjective(members) != b.EstimateObjective(members) || a.EstimateObjective(members) != c.EstimateObjective(members) {
			t.Fatalf("%v: repaired objective diverges from rebuild", p)
		}
	}
	// Compacting every chunk must reproduce the rebuild's physical arrays.
	chk.Compact()
	for ci, pt := range chk.parts {
		ref := rebuiltChk.parts[ci]
		if len(pt.ids) != len(ref.ids) {
			t.Fatalf("chunk %d: %d ids after compacted repair, rebuild has %d", ci, len(pt.ids), len(ref.ids))
		}
		for e := range pt.ids {
			if pt.ids[e] != ref.ids[e] || pt.hops[e] != ref.hops[e] {
				t.Fatalf("chunk %d: entry %d diverges from rebuild", ci, e)
			}
		}
	}
}

// TestChunkedSnapshotExtendFrom pins the memo-path state transfer on
// chunked tables, including invalidation when a sync widens the source.
func TestChunkedSnapshotExtendFrom(t *testing.T) {
	g, _ := graph.BarabasiAlbert(80, 2, 31)
	chk, _ := BuildChunkedWorkers(g, 4, 8, 5, 3, 1)
	src, _ := chk.NewDTable(Problem2)
	src.Update(2)
	snap := src.Snapshot()
	dst, _ := chk.NewDTable(Problem2)
	if err := dst.ExtendFrom(snap, 9); err != nil {
		t.Fatal(err)
	}
	want, _ := chk.NewDTable(Problem2)
	want.Update(2)
	want.Update(9)
	for u := 0; u < g.N(); u++ {
		if dst.Gain(u) != want.Gain(u) {
			t.Fatalf("extended table diverges at %d", u)
		}
	}
	// Widening the source invalidates its outstanding snapshots.
	if err := chk.ExtendReplicates(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := src.SyncChunks(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := chk.NewDTable(Problem2)
	if err := fresh.ExtendFrom(snap); err == nil {
		t.Fatal("stale snapshot accepted after SyncChunks widened its source")
	}
}
