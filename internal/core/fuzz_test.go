package core

import (
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/seqbcc"
)

// FuzzBCCMatchesSeq decodes arbitrary bytes into a multigraph (one byte
// per edge over 16 vertices) and checks FAST-BCC against Hopcroft–Tarjan,
// and its 2ECC labels against the filtered-connectivity reference. Runs
// its seed corpus under plain `go test`; use
// `go test -fuzz FuzzBCCMatchesSeq ./internal/core` to explore.
func FuzzBCCMatchesSeq(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x20})             // path
	f.Add([]byte{0x01, 0x12, 0x20, 0x01})       // triangle + parallel edge
	f.Add([]byte{0x00, 0x11, 0x22})             // self-loops
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89}) // matching
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16 // ids from a nibble
		edges := make([]graph.Edge, 0, len(data))
		for _, b := range data {
			u := int32(b >> 4)
			w := int32(b & 0xf)
			edges = append(edges, graph.Edge{U: u, W: w})
		}
		g := graph.MustFromEdges(n, edges)
		seed := uint64(len(data))*0x9e37 + 17
		res := BCC(g, Options{Seed: seed})
		ref := seqbcc.BCC(g)
		if res.NumBCC != ref.NumBCC() {
			t.Fatalf("NumBCC %d != %d for edges %v", res.NumBCC, ref.NumBCC(), edges)
		}
		if !check.Equal(res.Blocks(), ref.Blocks) {
			t.Fatalf("blocks differ for edges %v:\n fast %s\n  seq %s",
				edges, check.Describe(res.Blocks()), check.Describe(ref.Blocks))
		}
		// Derived structures must stay internally consistent too.
		if !res.BlockCutTree().IsTree() {
			t.Fatalf("block-cut forest invariant violated for %v", edges)
		}
		if got, want := res.TwoECC(g), FilteredTwoECC(nil, res, g); !slices.Equal(got, want) {
			t.Fatalf("2ECC labels differ from the filtered reference for %v:\n got %v\nwant %v", edges, got, want)
		}
	})
}
