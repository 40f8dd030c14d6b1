package bctree

// PathBlockLabels returns the decomposition labels (core.Result label
// ids) of the blocks on the block-cut tree path between u's and v's
// nodes — the blocks that merge into one when the edge {u, v} is added
// (Westbrook–Tarjan incremental biconnectivity). It walks the tree path
// like CutsOnPath, so it runs in O(path length) plus one scan over the
// labels to invert BlockOf.
//
// Returns nil when there is nothing to merge: u == v, u and v not
// connected, or fewer than two blocks on the path (u and v already
// biconnected). Callers treat nil as "fall back to a full rebuild".
func (x *Index) PathBlockLabels(u, v int32) []int32 {
	if u == v || !x.Connected(u, v) {
		return nil
	}
	a, b := x.nodeOf[u], x.nodeOf[v]
	if a == -1 || b == -1 || a == b {
		return nil
	}
	dl := x.lcaDepthBC(a, b)
	var nodes []int32
	collect := func(node int32) {
		if !x.isCutNode(node) {
			nodes = append(nodes, node)
		}
	}
	for x.bcDepth[a] > dl {
		collect(a)
		a = x.t.Parent[a]
	}
	for x.bcDepth[b] > dl {
		collect(b)
		b = x.t.Parent[b]
	}
	collect(a) // a == b == the LCA
	if len(nodes) < 2 {
		return nil
	}
	// Invert BlockOf for the path nodes. The path is short (its length
	// bounds the work everywhere else), so a small set + one label scan
	// beats materializing a full node→label array per index.
	set := make(map[int32]struct{}, len(nodes))
	for _, node := range nodes {
		set[node] = struct{}{}
	}
	labels := make([]int32, 0, len(nodes))
	for l := 0; l < x.res.NumLabels; l++ {
		if bn := x.t.BlockOf[l]; bn != -1 {
			if _, ok := set[bn]; ok {
				labels = append(labels, int32(l))
			}
		}
	}
	if len(labels) != len(nodes) {
		return nil
	}
	return labels
}
