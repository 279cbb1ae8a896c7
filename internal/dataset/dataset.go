// Package dataset provides the graphs of the paper's evaluation (Section 4):
// the four real-world SNAP datasets of Table 2 and the synthetic power-law
// suites used in Figs. 2–5 and Fig. 9.
//
// The module is offline, so the SNAP downloads are unavailable. Each
// real-world dataset is replaced by a deterministic synthetic stand-in with
// the same node count and a closely matched edge count, generated by a
// power-law (preferential attachment) process. The algorithms and both
// metrics depend only on topology; the paper's qualitative results (greedy >
// Dominate > Degree, growing gaps with k and L) are driven by the degree
// heterogeneity that the stand-ins share with the originals. DESIGN.md §5
// records this substitution.
package dataset

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Info describes one dataset of Table 2.
type Info struct {
	// Name as used in the paper.
	Name string
	// Nodes and Edges are the paper's reported sizes (Table 2).
	Nodes, Edges int
	// Description summarizes the original network's domain.
	Description string
	// Seed fixes the stand-in generation.
	Seed uint64
}

// Paper lists the four datasets of Table 2 in paper order.
var Paper = []Info{
	{Name: "CAGrQc", Nodes: 5242, Edges: 28968, Description: "co-authorship, general relativity", Seed: 0xCA68},
	{Name: "CAHepPh", Nodes: 12008, Edges: 236978, Description: "co-authorship, high-energy physics", Seed: 0xCA43},
	{Name: "Brightkite", Nodes: 58228, Edges: 428156, Description: "location-based social network", Seed: 0xB819},
	{Name: "Epinions", Nodes: 75872, Edges: 396026, Description: "trust social network", Seed: 0xE015},
}

// ByName returns the Table 2 entry with the given name.
func ByName(name string) (Info, error) {
	for _, d := range Paper {
		if d.Name == name {
			return d, nil
		}
	}
	return Info{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Names returns the dataset names in paper order.
func Names() []string {
	out := make([]string, len(Paper))
	for i, d := range Paper {
		out[i] = d.Name
	}
	return out
}

// Load generates the stand-in graph for a Table 2 dataset at the given
// scale. Scale 1 reproduces the paper's node count; smaller scales shrink
// the node count (and proportionally the edge count) for quick runs,
// preserving the average degree. Scale must be in (0, 1].
func Load(name string, scale float64) (*graph.Graph, error) {
	d, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dataset: scale %v outside (0,1]", scale)
	}
	n := int(float64(d.Nodes) * scale)
	m := int(float64(d.Edges) * scale)
	if n < 10 {
		n = 10
	}
	// Real social and co-authorship networks have community structure and a
	// rich club of interconnected hubs; both are what make the paper's
	// Degree baseline pick redundant nodes and fall behind greedy (Figs. 6,
	// 7). Plain preferential attachment lacks them, so the stand-ins use
	// the community-structured generator.
	c := n / 250
	if c < 8 {
		c = 8
	}
	if c > 64 {
		c = 64
	}
	return CommunityPowerLaw(n, m, c, d.Seed)
}

// CommunityPowerLaw generates a connected graph with n nodes, ≈m edges and c
// planted communities of power-law decreasing sizes. Each community is an
// internally preferential-attachment (heavy-tailed) subgraph; a small
// fraction of edges bridge communities, attached preferentially so hubs of
// different communities connect (a "rich club"). Compared with a plain
// power-law graph of the same size this reproduces two properties of real
// social networks that the paper's evaluation depends on: the top-k
// highest-degree nodes concentrate in the largest communities (making the
// Degree baseline redundant), and neighborhoods overlap (making coverage
// submodularity bite).
func CommunityPowerLaw(n, m, c int, seed uint64) (*graph.Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("dataset: need n >= 2, got %d", n)
	}
	if c < 1 {
		return nil, fmt.Errorf("dataset: need c >= 1 communities, got %d", c)
	}
	if c > n/2 {
		c = n / 2
	}
	if c < 1 {
		c = 1
	}
	maxM := n * (n - 1) / 2
	if m < n-1 {
		m = n - 1
	}
	if m > maxM {
		return nil, fmt.Errorf("dataset: m=%d exceeds max %d for n=%d", m, maxM, n)
	}

	// Community sizes ∝ 1/rank (Zipf), minimum 2, exactly summing to n.
	sizes := make([]int, c)
	var h float64
	for i := 0; i < c; i++ {
		h += 1 / float64(i+1)
	}
	assigned := 0
	for i := 0; i < c; i++ {
		sizes[i] = int(float64(n) / (float64(i+1) * h))
		if sizes[i] < 2 {
			sizes[i] = 2
		}
		assigned += sizes[i]
	}
	// Fix rounding drift on the largest community.
	sizes[0] += n - assigned
	if sizes[0] < 2 {
		return nil, fmt.Errorf("dataset: n=%d too small for %d communities", n, c)
	}

	// 88% of edges intra-community (proportional to community size), the
	// rest inter-community bridges.
	interBudget := m / 8
	intraBudget := m - interBudget

	r := rng.New(seed)
	b := graph.NewBuilder(n, graph.Undirected)
	// targets implements global preferential attachment for bridges: one
	// entry per intra-edge endpoint.
	targets := make([]int32, 0, 2*m)
	commOf := make([]int32, n)

	offset := 0
	edges := 0
	for i := 0; i < c; i++ {
		sz := sizes[i]
		for v := offset; v < offset+sz; v++ {
			commOf[v] = int32(i)
		}
		budget := intraBudget * sz / n
		if budget < sz-1 {
			budget = sz - 1 // keep each community internally connected
		}
		edges += growPreferential(r, b, &targets, offset, sz, budget)
		offset += sz
	}
	// Bridges: preferential endpoints in distinct communities. This both
	// connects the graph and builds the rich club.
	for attempts := 0; edges < m && attempts < 200*(m-edges+1); attempts++ {
		u := targets[r.Intn(len(targets))]
		v := targets[r.Intn(len(targets))]
		if u == v || commOf[u] == commOf[v] {
			continue
		}
		b.AddEdge(int(u), int(v))
		targets = append(targets, u, v)
		edges++
	}
	// Guarantee global connectivity: chain community representatives.
	offset = 0
	prev := 0
	for i := 0; i < c; i++ {
		if i > 0 {
			b.AddEdge(prev, offset)
		}
		prev = offset
		offset += sizes[i]
	}
	return b.Build()
}

// growPreferential grows a preferential-attachment subgraph over the node
// range [offset, offset+sz) with the given edge budget, appending endpoint
// entries to targets, and returns the number of edges added.
func growPreferential(r *rng.Source, b *graph.Builder, targets *[]int32, offset, sz, budget int) int {
	if sz < 2 {
		return 0
	}
	base := len(*targets)
	*targets = append(*targets, int32(offset), int32(offset+1))
	b.AddEdge(offset, offset+1)
	edges := 1
	remaining := sz - 2
	chosen := make(map[int32]bool, 8)
	for v := offset + 2; v < offset+sz; v++ {
		per := 1
		if remaining > 0 {
			per = (budget - edges + remaining - 1) / remaining
		}
		if per < 1 {
			per = 1
		}
		if per > v-offset {
			per = v - offset
		}
		for k := range chosen {
			delete(chosen, k)
		}
		attached := 0
		local := (*targets)[base:]
		for attempts := 0; attached < per && attempts < 50*per; attempts++ {
			t := local[r.Intn(len(local))]
			if int(t) == v || chosen[t] {
				continue
			}
			chosen[t] = true
			b.AddEdge(v, int(t))
			*targets = append(*targets, int32(v), t)
			local = (*targets)[base:]
			attached++
		}
		edges += attached
		remaining--
	}
	// Top up within the community if rounding left a deficit.
	local := (*targets)[base:]
	for attempts := 0; edges < budget && attempts < 100*(budget-edges+1); attempts++ {
		u := local[r.Intn(len(local))]
		v := local[r.Intn(len(local))]
		if u == v {
			continue
		}
		b.AddEdge(int(u), int(v))
		*targets = append(*targets, u, v)
		local = (*targets)[base:]
		edges++
	}
	return edges
}

// PowerLawExact generates a connected power-law graph with exactly n nodes
// and (up to rare dedup losses) exactly m edges, by preferential attachment
// with a fractional per-node attachment budget spread Bresenham-style.
// It extends graph.BarabasiAlbert, whose integer attachment count cannot
// match arbitrary densities like CAGrQc's m/n ≈ 5.5.
func PowerLawExact(n, m int, seed uint64) (*graph.Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("dataset: need n >= 2, got %d", n)
	}
	maxM := n * (n - 1) / 2
	if m < n-1 {
		m = n - 1 // connectivity floor: a tree
	}
	if m > maxM {
		return nil, fmt.Errorf("dataset: m=%d exceeds max %d for n=%d", m, maxM, n)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n, graph.Undirected)
	targets := make([]int32, 0, 2*m)

	// Connected seed: a path over the first two nodes.
	b.AddEdge(0, 1)
	targets = append(targets, 0, 1)
	edges := 1

	remainingNodes := n - 2
	chosen := make(map[int32]bool, 8)
	for v := 2; v < n; v++ {
		// Attachment budget for this node: spread the remaining edges evenly
		// over the remaining arriving nodes, rounding adaptively.
		budget := (m - edges + remainingNodes - 1) / remainingNodes
		if budget < 1 {
			budget = 1
		}
		if budget > v { // cannot attach to more distinct nodes than exist
			budget = v
		}
		for k := range chosen {
			delete(chosen, k)
		}
		attached := 0
		attempts := 0
		for attached < budget && attempts < 50*budget {
			attempts++
			t := targets[r.Intn(len(targets))]
			if int(t) == v || chosen[t] {
				continue
			}
			chosen[t] = true
			b.AddEdge(v, int(t))
			targets = append(targets, int32(v), t)
			attached++
		}
		edges += attached
		remainingNodes--
	}
	// Top up with preferential random edges if rounding left a deficit.
	for attempts := 0; edges < m && attempts < 100*(m-edges+1); attempts++ {
		u := targets[r.Intn(len(targets))]
		v := targets[r.Intn(len(targets))]
		if u == v {
			continue
		}
		// The builder dedups at Build time, so an occasional duplicate here
		// only costs a tiny edge-count shortfall.
		b.AddEdge(int(u), int(v))
		targets = append(targets, u, v)
		edges++
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Scalability returns the i-th graph of the paper's Fig. 9 suite at the
// given scale: G_i has i·0.1M·scale nodes and i·1M·scale edges,
// i ∈ [1, 10]. At scale 1 these are the paper's sizes.
func Scalability(i int, scale float64) (*graph.Graph, error) {
	if i < 1 || i > 10 {
		return nil, fmt.Errorf("dataset: scalability index %d outside [1,10]", i)
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dataset: scale %v outside (0,1]", scale)
	}
	n := int(float64(i) * 100000 * scale)
	m := int(float64(i) * 1000000 * scale)
	if n < 100 {
		n = 100
	}
	return PowerLawExact(n, m, 0x516+uint64(i))
}
