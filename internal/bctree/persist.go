package bctree

import (
	"repro/internal/core"
	"repro/internal/rmq"
)

// Parts is the flat-array decomposition of an Index for serialization:
// every slice the query paths touch, in a form the persist layer can
// write as snapshot sections and map back without rebuilding. The two
// sparse-table LCA structures are excluded on purpose — they are derived
// from the tour-depth arrays in O(m) with tiny constants, so FromParts
// rebuilds them instead of paying their ~2×log(m) footprint on disk.
type Parts struct {
	NodeOf      []int32
	BCFirst     []int32
	BCLast      []int32
	BCDepth     []int32
	BCTourDepth []int32

	ECC         []int32
	NumBridges  int
	BRComp      []int32
	BRPar       []int32
	BRFirst     []int32
	BRDepth     []int32
	BRTourDepth []int32
	BREdgeU     []int32
	BREdgeW     []int32
}

// Parts returns the index's flat arrays. The slices alias the index —
// treat them as read-only and keep the index alive while serializing.
func (x *Index) Parts() Parts {
	return Parts{
		NodeOf:      x.nodeOf,
		BCFirst:     x.bcFirst,
		BCLast:      x.bcLast,
		BCDepth:     x.bcDepth,
		BCTourDepth: x.bcTourDepth,
		ECC:         x.ecc,
		NumBridges:  x.numBridges,
		BRComp:      x.brComp,
		BRPar:       x.brPar,
		BRFirst:     x.brFirst,
		BRDepth:     x.brDepth,
		BRTourDepth: x.brTourDepth,
		BREdgeU:     x.brEdgeU,
		BREdgeW:     x.brEdgeW,
	}
}

// FromParts reassembles an Index over a restored decomposition — the
// restart path. r must already carry its topology caches (see
// core.RestoreResult); p's slices are adopted as-is (for mmap-backed
// restores they alias the mapping, which must outlive the index). Only
// the two LCA sparse tables are rebuilt, from the tour depths.
func FromParts(r *core.Result, p Parts) *Index {
	return &Index{
		res:         r,
		t:           r.BlockCutTree(),
		nodeOf:      p.NodeOf,
		bcFirst:     p.BCFirst,
		bcLast:      p.BCLast,
		bcDepth:     p.BCDepth,
		bcTourDepth: p.BCTourDepth,
		bcLCA:       rmq.NewMinIn(nil, p.BCTourDepth),
		ecc:         p.ECC,
		numBridges:  p.NumBridges,
		brComp:      p.BRComp,
		brPar:       p.BRPar,
		brFirst:     p.BRFirst,
		brDepth:     p.BRDepth,
		brTourDepth: p.BRTourDepth,
		brLCA:       rmq.NewMinIn(nil, p.BRTourDepth),
		brEdgeU:     p.BREdgeU,
		brEdgeW:     p.BREdgeW,
	}
}
