// Command rwdom selects random-walk domination targets on a graph.
//
// It reads an edge list (SNAP format) or generates a named dataset stand-in,
// runs the chosen selection algorithm, prints the selected nodes and both
// effectiveness metrics, and optionally writes the selection to a file.
// Approximate selections run through the rwdom.Open query engine; -stream
// prints each greedy round as it is decided (same final selection,
// bit-for-bit).
//
// Examples:
//
//	rwdom -graph web.txt -k 50 -L 6 -problem coverage
//	rwdom -dataset Epinions -scale 0.2 -k 100 -L 6 -algorithm approx
//	rwdom -dataset Epinions -scale 0.2 -k 100 -L 6 -algorithm approx -stream
//	rwdom -gen powerlaw -n 100000 -m 600000 -k 50 -problem hitting
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to an edge-list file (u v per line, # comments)")
		datasetN  = flag.String("dataset", "", "paper dataset stand-in: CAGrQc, CAHepPh, Brightkite or Epinions")
		scale     = flag.Float64("scale", 1.0, "dataset scale in (0,1]")
		gen       = flag.String("gen", "", "generate a graph: powerlaw or erdosrenyi (with -n, -m)")
		n         = flag.Int("n", 10000, "node count for -gen")
		m         = flag.Int("m", 50000, "edge count for -gen")
		k         = flag.Int("k", 10, "number of nodes to select")
		l         = flag.Int("L", 6, "random-walk length bound")
		r         = flag.Int("R", rwdom.DefaultR, "sample size per node for sampled algorithms")
		seed      = flag.Uint64("seed", 1, "random seed")
		problem   = flag.String("problem", "coverage", "objective: hitting (Problem 1) or coverage (Problem 2)")
		algorithm = flag.String("algorithm", "auto", "auto, dp, sampling, approx, degree or dominate")
		lazy      = flag.Bool("lazy", true, "use CELF lazy evaluation where valid")
		evalR     = flag.Int("evalR", 0, "if > 0, evaluate metrics by sampling with this R instead of exactly")
		out       = flag.String("o", "", "write selected node ids to this file, one per line")
		indexFile = flag.String("indexfile", "", "cache the walk index here: load if present, else build and save (approx only)")
		workers   = flag.Int("workers", 0, "goroutines for index construction and gain evaluation (0 = all cores); selections are identical for every value")
		analyze   = flag.Bool("analyze", false, "print structural statistics (clustering, assortativity, rich club) and exit")
		stream    = flag.Bool("stream", false, "print each greedy round as it is decided (approx algorithm only; same final selection)")
	)
	flag.Parse()

	g, err := loadGraph(*graphPath, *datasetN, *scale, *gen, *n, *m, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(g)

	if *analyze {
		a, err := rwdom.AnalyzeGraph(g)
		if err != nil {
			fatal(err)
		}
		fmt.Println(a.Stats)
		fmt.Printf("clustering: global=%.4f meanLocal=%.4f\n", a.GlobalClustering, a.LocalClustering)
		fmt.Printf("degree assortativity: %.4f\n", a.Assortativity)
		fmt.Printf("rich club (degree > %d, top 1%%): %.4f\n", a.Top1pctDegreeCut, a.RichClubTop1pct)
		return
	}

	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		fatal(err)
	}
	opts := rwdom.Options{K: *k, L: *l, R: *r, Seed: *seed, Algorithm: alg, Lazy: *lazy, Workers: *workers}

	var prob rwdom.Problem
	switch strings.ToLower(*problem) {
	case "hitting", "1", "f1":
		prob = rwdom.Problem1
	case "coverage", "2", "f2":
		prob = rwdom.Problem2
	default:
		fatal(fmt.Errorf("unknown problem %q (want hitting or coverage)", *problem))
	}

	var sel *rwdom.Selection
	switch {
	case *stream:
		sel, err = streamSelect(g, prob, opts, *indexFile)
	case *indexFile != "":
		sel, err = selectWithCachedIndex(g, prob, opts, *indexFile)
	default:
		sel, err = rwdom.Solve(g, prob, opts)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(sel)
	fmt.Printf("selected: %v\n", sel.Nodes)

	var metrics rwdom.Metrics
	if *evalR > 0 {
		metrics, err = rwdom.EvaluateSampled(g, sel.Nodes, *l, *evalR, *seed+1)
	} else {
		metrics, err = rwdom.EvaluateExact(g, sel.Nodes, *l)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(metrics)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		for _, u := range sel.Nodes {
			fmt.Fprintln(f, u)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d node ids to %s\n", len(sel.Nodes), *out)
	}
}

// streamSelect runs the approximate selection through the query engine's
// streaming path, printing each greedy round as it is decided. The final
// selection is bit-for-bit what the blocking path returns.
func streamSelect(g *rwdom.Graph, prob rwdom.Problem, opts rwdom.Options, indexFile string) (*rwdom.Selection, error) {
	if opts.Algorithm != rwdom.AlgorithmApprox &&
		!(opts.Algorithm == rwdom.AlgorithmAuto && g.N() > 2000) {
		return nil, fmt.Errorf("-stream requires the approximate algorithm (got %v for %d nodes); pass -algorithm approx", opts.Algorithm, g.N())
	}
	if opts.R == 0 {
		opts.R = rwdom.DefaultR
	}
	en, err := rwdom.Open(g, rwdom.WithWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	defer en.Close()
	if indexFile != "" {
		ix, err := loadOrBuildIndex(g, opts, indexFile)
		if err != nil {
			return nil, err
		}
		if err := en.AdoptIndex(ix); err != nil {
			return nil, err
		}
	}
	strategy := rwdom.Plain
	if opts.Lazy {
		strategy = rwdom.Lazy
	}
	res, err := en.SelectStream(context.Background(), rwdom.SelectRequest{
		Problem:  prob,
		K:        opts.K,
		L:        opts.L,
		R:        opts.R,
		Seed:     opts.Seed,
		Strategy: strategy,
		Workers:  opts.Workers,
	}, func(rd rwdom.Round) error {
		fmt.Printf("round %3d: node %7d  gain %12.4f  objective %14.4f\n", rd.Round, rd.Node, rd.Gain, rd.Objective)
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := "ApproxF1"
	if prob == rwdom.Problem2 {
		name = "ApproxF2"
	}
	return &rwdom.Selection{
		Algorithm:   name,
		Nodes:       res.Nodes,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   res.IndexBuild + res.TableBuild,
		SelectTime:  res.Select,
	}, nil
}

// selectWithCachedIndex resolves the walk index through loadOrBuildIndex,
// then runs the approximate greedy selection over it through an Engine that
// adopts the index. opts.Workers drives both the build and the selection
// loop.
func selectWithCachedIndex(g *rwdom.Graph, prob rwdom.Problem, opts rwdom.Options, path string) (*rwdom.Selection, error) {
	ix, err := loadOrBuildIndex(g, opts, path)
	if err != nil {
		return nil, err
	}
	en, err := rwdom.Open(g, rwdom.WithWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	defer en.Close()
	if err := en.AdoptIndex(ix); err != nil {
		return nil, err
	}
	strategy := rwdom.Plain
	if opts.Lazy {
		strategy = rwdom.Lazy
	}
	res, err := en.Select(context.Background(), rwdom.SelectRequest{
		Problem:  prob,
		K:        opts.K,
		L:        ix.L(),
		R:        ix.R(),
		Seed:     ix.Seed(),
		Strategy: strategy,
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	name := "ApproxF1"
	if prob == rwdom.Problem2 {
		name = "ApproxF2"
	}
	return &rwdom.Selection{
		Algorithm:   name,
		Nodes:       res.Nodes,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   res.TableBuild,
		SelectTime:  res.Select,
	}, nil
}

// loadOrBuildIndex loads the walk index from path if it exists (validating
// it against the graph and the run's L, R and seed), otherwise builds and
// saves it.
func loadOrBuildIndex(g *rwdom.Graph, opts rwdom.Options, path string) (*rwdom.Index, error) {
	if _, statErr := os.Stat(path); statErr == nil {
		loaded, err := rwdom.LoadIndexFile(path, g)
		if err != nil {
			// Unreadable cache (a retired format such as v7, corruption, or
			// an index built on a different graph): rebuilding is cheap and
			// always what the user wants here, so warn and fall through.
			fmt.Fprintf(os.Stderr, "rwdom: cached index %s unusable (%v), rebuilding\n", path, err)
		} else if loaded.L() != opts.L || loaded.R() != opts.R || loaded.Seed() != opts.Seed || loaded.R0() != 0 {
			return nil, fmt.Errorf("cached index has L=%d R=%d seed=%d R0=%d, run requested L=%d R=%d seed=%d (delete %s to rebuild)",
				loaded.L(), loaded.R(), loaded.Seed(), loaded.R0(), opts.L, opts.R, opts.Seed, path)
		} else {
			fmt.Printf("loaded index from %s (%d entries)\n", path, loaded.Entries())
			return loaded, nil
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	built, err := rwdom.BuildIndexParallel(g, opts.L, opts.R, opts.Seed, workers)
	if err != nil {
		return nil, err
	}
	if err := built.SaveFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("built and saved index to %s (%d entries)\n", path, built.Entries())
	return built, nil
}

func loadGraph(path, ds string, scale float64, gen string, n, m int, seed uint64) (*rwdom.Graph, error) {
	sources := 0
	for _, s := range []string{path, ds, gen} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of -graph, -dataset, -gen")
	}
	switch {
	case path != "":
		return rwdom.LoadEdgeListFile(path, rwdom.Undirected)
	case ds != "":
		return rwdom.LoadDataset(ds, scale)
	default:
		switch strings.ToLower(gen) {
		case "powerlaw":
			return rwdom.GeneratePowerLaw(n, m, seed)
		case "erdosrenyi":
			return rwdom.GenerateErdosRenyi(n, m, seed)
		default:
			return nil, fmt.Errorf("unknown generator %q (want powerlaw or erdosrenyi)", gen)
		}
	}
}

func parseAlgorithm(s string) (rwdom.Algorithm, error) {
	switch strings.ToLower(s) {
	case "auto":
		return rwdom.AlgorithmAuto, nil
	case "dp":
		return rwdom.AlgorithmDP, nil
	case "sampling":
		return rwdom.AlgorithmSampling, nil
	case "approx":
		return rwdom.AlgorithmApprox, nil
	case "degree":
		return rwdom.AlgorithmDegree, nil
	case "dominate":
		return rwdom.AlgorithmDominate, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rwdom:", err)
	os.Exit(1)
}
