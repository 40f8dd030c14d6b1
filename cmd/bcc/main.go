// Command bcc computes the biconnected components of a graph and prints a
// summary: block count, articulation points, bridges, per-step times.
//
// Usage:
//
//	bcc -in graph.bin                  # binary file written by bccgen
//	bcc -in graph.txt -format edges    # "n m" header + "u w" lines
//	bcc -gen SQR -scale small          # a suite instance by name
//	bcc -in graph.bin -algo seq        # any registered engine (-algo list)
//	bcc -in graph.bin -blocks          # also list the blocks (small graphs)
package main

import (
	"flag"
	"fmt"
	"os"

	fastbcc "repro"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/graph"
)

func main() {
	in := flag.String("in", "", "input graph file")
	format := flag.String("format", "bin", "input format: bin|edges")
	genName := flag.String("gen", "", "generate a suite instance by name (e.g. SQR, Chn7)")
	scale := flag.String("scale", "small", "scale for -gen: small|medium|large")
	algo := flag.String("algo", "", "algorithm (registry name, default fast; 'list' prints the choices)")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	localSearch := flag.Bool("opt", false, "enable hash-bag/local-search connectivity")
	blocks := flag.Bool("blocks", false, "print the blocks (use on small graphs)")
	flag.Parse()

	name := *algo
	if name == "list" {
		for _, a := range fastbcc.Algorithms() {
			fmt.Printf("%-10s connected-only=%v sequential=%v deterministic=%v\n",
				a.Name, a.ConnectedOnly, a.Sequential, a.Deterministic)
		}
		return
	}
	a, err := engine.Get(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcc: %v (try -algo list)\n", err)
		os.Exit(2)
	}
	name = a.Name()

	g, err := load(*in, *format, *genName, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcc:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())

	res := fastbcc.BCC(g, &fastbcc.Options{
		Algorithm:   name,
		Threads:     *threads,
		LocalSearch: *localSearch,
	})
	fmt.Printf("algorithm: %s\n", name)
	fmt.Printf("#BCC: %d\n", res.NumBCC)
	fmt.Printf("articulation points: %d\n", len(res.ArticulationPoints()))
	fmt.Printf("bridges: %d\n", len(res.Bridges(g)))
	t := res.Times
	fmt.Printf("steps: first-cc=%v rooting=%v tagging=%v last-cc=%v total=%v\n",
		t.FirstCC, t.Rooting, t.Tagging, t.LastCC, t.Total())
	fmt.Printf("aux space estimate: %.1f MB\n", float64(res.AuxBytes)/(1<<20))
	if *blocks {
		for i, b := range res.Blocks() {
			fmt.Printf("block %d: %v\n", i, b)
		}
	}
}

func load(in, format, genName, scale string) (*graph.Graph, error) {
	switch {
	case genName != "":
		ins, ok := bench.ByName(genName)
		if !ok {
			return nil, fmt.Errorf("unknown suite instance %q", genName)
		}
		return ins.Build(bench.ParseScale(scale)), nil
	case in != "":
		if format == "edges" {
			f, err := os.Open(in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadEdgeList(f)
		}
		return graph.LoadFile(in)
	default:
		return nil, fmt.Errorf("need -in or -gen")
	}
}
