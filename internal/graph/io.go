package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/parallel"
)

// Binary interchange format:
//
//	magic   uint32  = 0x42434331 ("BCC1")
//	n       uint32
//	arcs    uint32  (len(Adj))
//	offsets (n+1) × int32, little endian
//	adj     arcs × int32, little endian
const binaryMagic = 0x42434331

// WriteBinary serializes g to w in the repository's binary CSR format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{binaryMagic, uint32(g.N), uint32(len(g.Adj))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Adj); err != nil {
		return err
	}
	return bw.Flush()
}

// readInt32Chunked reads count little-endian int32 values from r, growing
// the result incrementally so a hostile header cannot force a huge
// allocation before a single byte of payload has been read: a lying count
// fails with a read error after at most one chunk beyond the real data.
func readInt32Chunked(r io.Reader, count int, what string) ([]int32, error) {
	const chunk = 1 << 16
	first := count
	if first > chunk {
		first = chunk
	}
	out := make([]int32, 0, first)
	for len(out) < count {
		c := count - len(out)
		if c > chunk {
			c = chunk
		}
		// Grow amortized-geometrically, but only after the previous
		// chunk's payload actually arrived; the new elements are read
		// into directly, never zeroed first.
		out = slices.Grow(out, c)[:len(out)+c]
		seg := out[len(out)-c:]
		if err := binary.Read(r, binary.LittleEndian, seg); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
	}
	return out, nil
}

// ReadBinary deserializes a graph written by WriteBinary. Every field of a
// malformed or hostile input is validated: the header's sizes are bounded
// before they drive allocation, offsets must start at 0 and be
// non-decreasing, neighbors must be in range, every neighbor list must be
// ascending, and the arcs must be symmetric — a corrupt file yields an
// error, never a panic, an OOM-sized allocation, or a graph whose
// accessors can fault or answer wrongly later (HasEdge, Multiplicity and
// PatchIn binary-search the lists, and every algorithm assumes both arcs
// of an edge).
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	// The on-disk counts are uint32; vertex ids and offsets are int32, so
	// anything beyond int32 range is corrupt by construction. Checked
	// before allocating: the header must never size an allocation the
	// format itself cannot represent.
	const maxI32 = 1<<31 - 1
	n, arcs := int64(hdr[1]), int64(hdr[2])
	if n >= maxI32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
	}
	if arcs > maxI32 {
		return nil, fmt.Errorf("graph: arc count %d exceeds int32 range", arcs)
	}
	offsets, err := readInt32Chunked(br, int(n)+1, "offsets")
	if err != nil {
		return nil, err
	}
	adj, err := readInt32Chunked(br, int(arcs), "adjacency")
	if err != nil {
		return nil, err
	}
	g := &Graph{N: int32(n), Offsets: offsets, Adj: adj}
	if g.Offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets start at %d, want 0", g.Offsets[0])
	}
	if int64(g.Offsets[n]) != arcs {
		return nil, fmt.Errorf("graph: offsets end %d != arcs %d", g.Offsets[n], arcs)
	}
	for v := int64(0); v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return nil, fmt.Errorf("graph: decreasing offsets at %d", v)
		}
	}
	for v := int32(0); v < g.N; v++ {
		prev := int32(-1)
		for _, w := range g.Neighbors(v) {
			if w < 0 || int64(w) >= n {
				return nil, fmt.Errorf("graph: neighbor %d out of range", w)
			}
			if w < prev {
				return nil, fmt.Errorf("graph: neighbor list of %d is not sorted", v)
			}
			prev = w
		}
	}
	// The lists are in range and ascending, so the graph is symmetric iff
	// its adjacency equals its own transpose.
	if n > 0 {
		nw := csrWorkers(parallel.Procs(), int(n), len(adj))
		t := make([]V, len(adj))
		if !transpose(nil, offsets, adj, t, nw, make([]int32, nw*int(n))) || !slices.Equal(t, adj) {
			return nil, fmt.Errorf("graph: adjacency is not symmetric")
		}
	}
	return g, nil
}

// SaveFile writes g to path in binary format. The file handle is closed
// exactly once, so close errors (the write may only surface on close with
// buffered filesystems) are reported, not swallowed by a duplicate close.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a graph from a binary file written by SaveFile.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// WriteEdgeList writes the graph as "n m" header plus one "u w" line per
// undirected edge, a common text interchange format.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N, g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the text format written by WriteEdgeList. The header
// counts are validated before they drive allocation (a negative or absurd
// m must not panic make or reserve gigabytes on a one-line input), the
// edge slice grows incrementally as edges actually parse, and input after
// the declared m edges is rejected so silently truncated headers cannot
// masquerade as success.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var n, m int64
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: reading edge-list header: %w", err)
	}
	if n < 0 || n >= 1<<31 {
		return nil, fmt.Errorf("graph: vertex count %d out of range", n)
	}
	if m < 0 || m >= 1<<30 { // 2m arcs must fit int32
		return nil, fmt.Errorf("graph: edge count %d out of range", m)
	}
	// Cap the speculative allocation: the header's claim is only trusted
	// up to a chunk, the rest is earned by edges that actually parse.
	capHint := m
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	edges := make([]Edge, 0, capHint)
	for i := int64(0); i < m; i++ {
		var e Edge
		if _, err := fmt.Fscan(br, &e.U, &e.W); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		edges = append(edges, e)
	}
	var trailing string
	switch _, err := fmt.Fscan(br, &trailing); err {
	case io.EOF: // clean end of input
	case nil:
		return nil, fmt.Errorf("graph: trailing data %q after %d edges", trailing, m)
	default:
		return nil, fmt.Errorf("graph: reading after %d edges: %w", m, err)
	}
	return FromEdges(int(n), edges)
}
