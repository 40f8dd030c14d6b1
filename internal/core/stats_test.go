package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqbcc"
)

func TestBlockSizes(t *testing.T) {
	g := gen.CliqueChain(3, 5)
	res := BCC(g, Options{Seed: 1})
	sizes := res.BlockSizes()
	nonZero := 0
	for _, s := range sizes {
		if s != 0 {
			nonZero++
			if s != 5 {
				t.Fatalf("block size %d, want 5", s)
			}
		}
	}
	if nonZero != 3 {
		t.Fatalf("blocks with size = %d, want 3", nonZero)
	}
}

func TestLargestBlock(t *testing.T) {
	g := gen.Barbell(6, 4) // K6 blocks of size 6, bridges of size 2
	res := BCC(g, Options{Seed: 2})
	size, label := res.LargestBlock()
	if size != 6 {
		t.Fatalf("largest block size %d, want 6", size)
	}
	blk := res.Block(label)
	if len(blk) != 6 {
		t.Fatalf("Block() returned %d vertices", len(blk))
	}
}

func TestLargestBlockEmpty(t *testing.T) {
	g := graph.MustFromEdges(4, nil)
	res := BCC(g, Options{Seed: 3})
	size, label := res.LargestBlock()
	if size != 0 || label != -1 {
		t.Fatalf("edgeless: size=%d label=%d", size, label)
	}
}

func TestBlockInvalidLabel(t *testing.T) {
	g := gen.Cycle(5)
	res := BCC(g, Options{Seed: 4})
	if res.Block(-1) != nil || res.Block(int32(res.NumLabels)) != nil {
		t.Fatal("out-of-range labels must return nil")
	}
}

func TestBlockMatchesBlocks(t *testing.T) {
	g := gen.ER(80, 160, 5)
	res := BCC(g, Options{Seed: 5})
	blocks := res.Blocks()
	// Block(l) over the labels that are blocks, in label order, lists
	// Blocks(), and every set is strictly increasing: the head lands in
	// its place among the members.
	var got [][]int32
	for l := int32(0); int(l) < res.NumLabels; l++ {
		if b := res.Block(l); b != nil {
			got = append(got, b)
		}
	}
	if !slices.EqualFunc(got, blocks, slices.Equal) {
		t.Fatalf("Block() by label = %v, Blocks() = %v", got, blocks)
	}
	for _, b := range blocks {
		for i := 1; i < len(b); i++ {
			if b[i-1] >= b[i] {
				t.Fatalf("block %v not strictly increasing", b)
			}
		}
	}
}

func TestCountsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(100)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		res := BCC(g, Options{Seed: uint64(trial)})
		sizes := res.BlockSizes()
		for l := int32(0); int(l) < res.NumLabels; l++ {
			if got, want := sizes[l], int32(len(res.Block(l))); got != want {
				t.Fatalf("trial %d: BlockSizes()[%d] = %d, Block has %d vertices", trial, l, got, want)
			}
		}
	}
}

func TestBlockSizesSumToMembership(t *testing.T) {
	g := gen.RMAT(10, 6, 7)
	res := BCC(g, Options{Seed: 7})
	ref := seqbcc.BCC(g)
	sizes := res.BlockSizes()
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	var want int64
	for _, b := range ref.Blocks {
		want += int64(len(b))
	}
	if total != want {
		t.Fatalf("membership total %d != seq %d", total, want)
	}
}
