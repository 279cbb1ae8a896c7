package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Spans is a compressed chunk's blob. Materialize decodes all of it at once;
// NodeSpan(u) serves by decode-on-read, returning node u's block — all of the
// chunk's replicate rows for u — in exactly the shape the heap-resident hot
// paths consume, decoding from the mapped blob on demand.
//
// A direct-mapped cache of decoded blocks (atomic.Pointer slots, lock-free
// for readers and writers) keeps hot rows materialized: a selection sweep
// touches the same candidate blocks every round, so steady-state reads are a
// slot load + pointer compare, preserving the contiguous-span win the layout
// ablations measured while cold rows stay compressed on the map. Concurrent
// decoders of the same cold block may race benignly — both decode, one's
// result wins the slot, answers are identical either way.
type Spans struct {
	f     *File
	m     *chunkMeta
	n     int
	width int
	// blockOffs/blob alias the file's pages.
	blockOffs []int64
	blob      []byte
	// slots is the direct-mapped decoded-block cache (nil: caching disabled,
	// every read decodes). mask = len(slots)-1, a power of two.
	slots []atomic.Pointer[decoded]
	mask  uint32
	// empty is the span served for a malformed block (decode error): zero
	// entries in every row — never garbage, never a panic.
	empty *decoded
}

func newSpans(f *File, m *chunkMeta, hotRows int) *Spans {
	s := &Spans{
		f:         f,
		m:         m,
		n:         f.id.N,
		width:     m.width,
		blockOffs: bytesInt64(f.section(m, 0)),
		blob:      f.section(m, 1),
		empty:     &decoded{u: -1, offs: make([]int64, m.width+1)},
	}
	if hotRows == 0 {
		hotRows = DefaultHotRows
	}
	if hotRows > 0 {
		size := 1
		for size < hotRows {
			size <<= 1
		}
		s.slots = make([]atomic.Pointer[decoded], size)
		s.mask = uint32(size - 1)
	}
	return s
}

// NodeSpan returns node u's rows: row i of the chunk is
// ids[offs[i]:offs[i+1]] with parallel hops. The slices are read-only and
// valid while the owning *File is reachable (cached blocks are heap-resident
// but follow the same rule for uniformity).
func (s *Spans) NodeSpan(u int) (offs []int64, ids []int32, hops []uint16) {
	var slot *atomic.Pointer[decoded]
	if s.slots != nil {
		slot = &s.slots[uint32(u)&s.mask]
		if d := slot.Load(); d != nil && int(d.u) == u {
			s.f.decodeHits.Add(1)
			return d.offs, d.ids, d.hops
		}
	}
	s.f.decodeMisses.Add(1)
	d := s.decode(u)
	if slot != nil && d != s.empty {
		slot.Store(d)
	}
	return d.offs, d.ids, d.hops
}

// decode materializes node u's block from the blob. The open-time CRC pass
// makes a malformed block unreachable short of a writer bug; if one appears
// anyway it is counted and served as an empty span, never a panic.
func (s *Spans) decode(u int) *decoded {
	lo, hi := s.blockOffs[u], s.blockOffs[u+1]
	d, err := decodeBlock(s.blob[lo:hi], u, s.width, s.n, s.f.id.L)
	if err != nil {
		s.f.decodeErrors.Add(1)
		return s.empty
	}
	return d
}

// Materialize decodes the whole chunk into fresh compact CSR arrays in one
// pass: the heap load of a compressed file, the store→heap promotion
// mutation forces (Repair needs writable arrays), and the bridge for
// re-serializing a decode-on-read index all go through it. The arrays are
// sized from the directory's entry count and filled in place, with nothing
// allocated per node. Node ranges of roughly equal blob bytes decode on up
// to GOMAXPROCS goroutines; each range's first entry comes from a varint
// count of the ranges before it (blockEntries). Any malformed block, or a
// total that differs from the directory's count, fails the whole decode.
func (s *Spans) Materialize() (offsets []int64, ids []int32, hops []uint16, err error) {
	bounds := s.split(runtime.GOMAXPROCS(0))
	w := len(bounds) - 1
	width := int64(s.width)
	// starts[r] is range r's first entry; starts[w] the chunk's total.
	starts := make([]int64, w+1)
	valid := make([]bool, w)
	parallel(w, func(r int) {
		lo, hi := bounds[r], bounds[r+1]
		starts[r+1], valid[r] = blockEntries(s.blob[s.blockOffs[lo]:s.blockOffs[hi]], int64(hi-lo)*width)
	})
	for r := 0; r < w; r++ {
		if !valid[r] {
			return nil, nil, nil, fmt.Errorf("%w: nodes [%d, %d) do not hold whole blocks", ErrMalformed, bounds[r], bounds[r+1])
		}
		starts[r+1] += starts[r]
	}
	if starts[w] != s.m.entries {
		return nil, nil, nil, fmt.Errorf("%w: chunk blocks encode %d entries, directory declares %d", ErrMalformed, starts[w], s.m.entries)
	}

	rows := int64(s.n) * width
	offsets = make([]int64, rows+1)
	ids = make([]int32, s.m.entries)
	hops = make([]uint16, s.m.entries)
	errs := make([]error, w)
	parallel(w, func(r int) {
		e, end := starts[r], starts[r+1]
		for u := bounds[r]; u < bounds[r+1] && errs[r] == nil; u++ {
			base := int64(u) * width
			e, errs[r] = decodeRows(s.blob[s.blockOffs[u]:s.blockOffs[u+1]], u, s.width, s.n, s.f.id.L,
				offsets[base:base+width], ids[:end], hops[:end], e)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	offsets[rows] = s.m.entries
	return offsets, ids, hops, nil
}

// split cuts the chunk's nodes into at most workers ranges of roughly equal
// blob bytes (block sizes follow node degree, so equal node counts would
// not balance) and returns the range bounds.
func (s *Spans) split(workers int) []int {
	total := s.blockOffs[s.n]
	bounds := make([]int, workers+1)
	for r := 1; r < workers; r++ {
		want := total * int64(r) / int64(workers)
		bounds[r] = sort.Search(s.n, func(u int) bool { return s.blockOffs[u] >= want })
	}
	bounds[workers] = s.n
	return bounds
}

// parallel runs fn(0..w-1) concurrently and waits for all of them.
func parallel(w int, fn func(r int)) {
	var wg sync.WaitGroup
	for r := 1; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	fn(0)
	wg.Wait()
}
