// Mmapserve: O(1) warm restarts and larger-than-RAM serving off mapped
// spill files.
//
// A walk index is expensive to build — O(n·R·L) sampled walks — and cheap
// to keep: spilled to disk on shutdown, it warm-loads on the next start.
// This example measures what that restart costs in each mode. A cold
// Engine builds the index and spills it on Close (format v8: page-aligned
// sections, per-section CRC32-C, delta/varint-compressed walk spans). A
// warm Engine over the same spill directory then comes up twice: once
// decoding the file onto the heap at load, and once with WithMmapSpills,
// where the "load" is an mmap plus CRC verification — no deserialize, rows
// page in as queries touch them, and the mapped index costs nothing
// against the index-bytes budget, so the working set may exceed RAM.
//
// Both warm paths answer bit-identically to the cold build; the example
// checks it and prints the /stats-style storage counters (mapped indexes,
// page-in restarts, hot-row decode traffic) that track the mapped mode in
// production.
//
// Run with: go run ./examples/mmapserve
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	g, err := rwdom.GeneratePowerLaw(20000, 100000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)

	dir, err := os.MkdirTemp("", "mmapserve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	req := rwdom.SelectRequest{Problem: rwdom.Problem2, K: 10, L: 6, R: 60, Seed: 1}

	// Cold: build the index, select, and spill it on Close.
	cold, err := rwdom.Open(g, rwdom.WithSpillDir(dir))
	if err != nil {
		log.Fatal(err)
	}
	want, err := cold.Select(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncold start:  index build %v, targets %v\n", want.IndexBuild.Round(time.Millisecond), want.Nodes)
	cold.Close() // spills the resident index as a v8 store file

	var spillBytes int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, _ error) error {
		if d != nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				spillBytes += fi.Size()
			}
		}
		return nil
	})
	fmt.Printf("spilled:     %d bytes on disk (compressed v8 container)\n", spillBytes)

	// Warm restart, heap mode: the spill file is read and its compressed
	// spans decoded once onto the Go heap — already far cheaper than the
	// rebuild, but O(entries), and the index then serves at heap speed.
	restart := func(label string, opts ...rwdom.Option) *rwdom.Engine {
		en, err := rwdom.Open(g, append([]rwdom.Option{rwdom.WithSpillDir(dir)}, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		got, err := en.Select(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		if !got.IndexCached {
			log.Fatalf("%s: expected a warm load, got a rebuild", label)
		}
		for i, n := range got.Nodes {
			if n != want.Nodes[i] || math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
				log.Fatalf("%s: warm answer diverged at round %d", label, i)
			}
		}
		fmt.Printf("%s first query in %v (bit-identical to cold)\n", label, time.Since(start).Round(time.Millisecond))
		return en
	}

	en := restart("warm (heap): ")
	en.Close()

	// Warm restart, mmap mode: open maps the file read-only and verifies
	// CRCs; no deserialize happens and no index bytes land on the heap.
	en = restart("warm (mmap): ", rwdom.WithMmapSpills())
	defer en.Close()

	st := en.Stats()
	fmt.Printf("\nstorage: format=%s mmap=%v mapped_indexes=%d mapped_bytes=%d page_in_restarts=%d\n",
		st.Storage.SpillFormat, st.Storage.Mmap, st.Storage.MappedIndexes,
		st.Storage.MappedBytes, st.Storage.PageInRestarts)
	fmt.Printf("decode:  hits=%d misses=%d (compressed spans decode on read through the hot-row cache)\n",
		st.Storage.DecodeHits, st.Storage.DecodeMisses)
	if st.Storage.PageInRestarts == 0 {
		fmt.Println("note: mmap unavailable on this platform; the load fell back to the heap path")
	}
}
