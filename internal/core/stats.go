package core

import (
	"repro/internal/parallel"
	"repro/internal/prim"
)

// BlockSizes returns the number of vertices of every block, indexed by
// dense label: LabelSizes() plus one for the head. Labels that are not
// blocks (root singletons) get size 0.
func (r *Result) BlockSizes() []int32 {
	count := r.LabelSizes()
	sizes := make([]int32, r.NumLabels)
	parallel.For(r.NumLabels, func(l int) {
		if r.Head[l] != -1 {
			sizes[l] = count[l] + 1
		}
	})
	return sizes
}

// LargestBlock returns the size of the largest block and its dense label
// (-1 if the graph has no blocks). The |BCC1| column of the paper's Tab. 2.
func (r *Result) LargestBlock() (size int32, label int32) {
	sizes := r.BlockSizes()
	label = -1
	for l, s := range sizes {
		if s > size {
			size, label = s, int32(l)
		}
	}
	return size, label
}

// Block returns the sorted vertex set of one block by dense label, or nil
// if the label is not a block.
func (r *Result) Block(label int32) []int32 {
	if label < 0 || int(label) >= r.NumLabels || r.Head[label] == -1 {
		return nil
	}
	members := prim.PackIndices(len(r.Label), func(v int) bool {
		return r.Label[v] == label && r.Parent[v] != -1
	})
	return withHead(members, r.Head[label])
}
