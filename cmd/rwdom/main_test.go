package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]rwdom.Algorithm{
		"auto":     rwdom.AlgorithmAuto,
		"DP":       rwdom.AlgorithmDP,
		"Sampling": rwdom.AlgorithmSampling,
		"approx":   rwdom.AlgorithmApprox,
		"degree":   rwdom.AlgorithmDegree,
		"DOMINATE": rwdom.AlgorithmDominate,
	}
	for in, want := range cases {
		got, err := parseAlgorithm(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Errorf("%q -> %v, want %v", in, got, want)
		}
	}
	if _, err := parseAlgorithm("quantum"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestLoadGraphSources(t *testing.T) {
	// Exactly one source must be specified.
	if _, err := loadGraph("", "", 1, "", 10, 20, 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadGraph("x.txt", "CAGrQc", 1, "", 10, 20, 1); err == nil {
		t.Error("two sources accepted")
	}
	// Generators.
	g, err := loadGraph("", "", 1, "powerlaw", 100, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("powerlaw n=%d", g.N())
	}
	g, err = loadGraph("", "", 1, "erdosrenyi", 50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 100 {
		t.Fatalf("erdosrenyi m=%d", g.M())
	}
	if _, err := loadGraph("", "", 1, "mystery", 10, 20, 1); err == nil {
		t.Error("unknown generator accepted")
	}
	// Dataset.
	g, err = loadGraph("", "CAGrQc", 0.05, "", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 262 {
		t.Fatalf("dataset n=%d", g.N())
	}
	// File.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	orig, _ := rwdom.FromEdgeList(3, [][2]int{{0, 1}, {1, 2}})
	if err := orig.SaveEdgeListFile(path); err != nil {
		t.Fatal(err)
	}
	g, err = loadGraph(path, "", 1, "", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("file graph %v", g)
	}
}

func TestSelectWithCachedIndex(t *testing.T) {
	g, err := rwdom.GeneratePowerLaw(200, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.idx")
	opts := rwdom.Options{K: 4, L: 4, R: 20, Seed: 1, Lazy: true, Workers: 2}

	// First call builds and saves.
	first, err := selectWithCachedIndex(g, rwdom.Problem2, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	// Second call loads and must select identically.
	second, err := selectWithCachedIndex(g, rwdom.Problem2, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Nodes {
		if first.Nodes[i] != second.Nodes[i] {
			t.Fatal("cached index changed the selection")
		}
	}
	// Parameter mismatch is rejected with a helpful error.
	badOpts := opts
	badOpts.L = 7
	if _, err := selectWithCachedIndex(g, rwdom.Problem2, badOpts, path); err == nil {
		t.Error("L mismatch accepted")
	}
	badOpts = opts
	badOpts.R = 99
	if _, err := selectWithCachedIndex(g, rwdom.Problem2, badOpts, path); err == nil {
		t.Error("R mismatch accepted")
	}
	badOpts = opts
	badOpts.Seed = 2
	if _, err := selectWithCachedIndex(g, rwdom.Problem2, badOpts, path); err == nil || !strings.Contains(err.Error(), "delete") {
		t.Errorf("seed mismatch: err %v, want the delete-to-rebuild error", err)
	}
}
