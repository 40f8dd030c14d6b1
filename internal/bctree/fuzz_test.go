package bctree

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzIndexMatchesNaive decodes arbitrary bytes into a multigraph (one
// byte per edge over 16 vertices, ids from its two nibbles) and checks
// every Index query on every vertex pair against the brute-force
// reference. Runs its seed corpus under plain `go test`; use
// `go test -fuzz FuzzIndexMatchesNaive ./internal/bctree` to explore.
func FuzzIndexMatchesNaive(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34})       // path: all bridges
	f.Add([]byte{0x01, 0x12, 0x20, 0x23, 0x01}) // triangle with a doubled edge, a pendant bridge
	f.Add([]byte{0x01, 0x12, 0x20, 0x34, 0x45, 0x53, 0x26})
	f.Add([]byte{0x00, 0x11, 0x01})             // self-loops
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05}) // star
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		edges := make([]graph.Edge, 0, len(data))
		for _, b := range data {
			edges = append(edges, graph.Edge{U: int32(b >> 4), W: int32(b & 0xf)})
		}
		g := graph.MustFromEdges(n, edges)
		res := core.BCC(g, core.Options{Seed: uint64(len(data))*0x9e37 + 17})
		x := New(g, res)
		if x.NumBlocks() != res.NumBCC || x.NumBridges() != len(res.Bridges(g)) {
			t.Fatalf("blocks/bridges = %d/%d, decomposition %d/%d for %v",
				x.NumBlocks(), x.NumBridges(), res.NumBCC, len(res.Bridges(g)), edges)
		}
		na := newNaive(n, edges)
		rng := rand.New(rand.NewSource(int64(len(data))))
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				checkPair(t, x, na, u, v, rng)
			}
		}
	})
}
