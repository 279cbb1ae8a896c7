package graph

// ConnectedComponents labels each node with a component id in [0, count) and
// returns the labels and the component count. For directed graphs it
// computes weakly connected components by following arcs in both directions
// implicitly (it treats the adjacency as symmetric only if the graph is
// undirected; directed callers should symmetrize first — the domination
// algorithms in this module operate on undirected graphs).
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < g.n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether the undirected graph has a single connected
// component.
func (g *Graph) IsConnected() bool {
	_, c := g.ConnectedComponents()
	return c == 1
}
