// Command bccbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bccbench -exp tab2            # Table 2: all algorithms on the 27-graph suite
//	bccbench -exp fig1            # Figure 1: speedup heatmap over SEQ
//	bccbench -exp fig4            # Figure 4: scalability curves
//	bccbench -exp fig5            # Figure 5: per-step breakdown Ours vs GBBS
//	bccbench -exp fig6            # Figure 6: Orig vs Opt connectivity ablation
//	bccbench -exp fig7            # Figure 7: relative space usage
//	bccbench -exp tab3            # Table 3: Tarjan–Vishkin running times
//	bccbench -exp all             # everything
//	bccbench -exp tab2 -scale medium -reps 3
//	bccbench -exp tab2 -graphs SQR,REC,Chn7
//	bccbench -exp tab2 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "tab2", "experiment: tab2|fig1|fig4|fig5|fig6|fig7|tab3|all")
	scale := flag.String("scale", "small", "instance scale: small|medium|large")
	reps := flag.Int("reps", 1, "repetitions per measurement (median reported)")
	graphs := flag.String("graphs", "", "comma-separated subset of instance names (default: all 27)")
	quiet := flag.Bool("q", false, "suppress progress output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "bccbench: %v\n", err)
			}
		}()
	}

	sc := bench.ParseScale(*scale)
	progress := os.Stderr
	if *quiet {
		progress = nil
	}

	var rows []bench.Row
	needRows := map[string]bool{"tab2": true, "fig1": true, "fig5": true, "fig6": true, "fig7": true, "tab3": true, "all": true}
	if needRows[*exp] {
		rows = collectRows(sc, *reps, *graphs, progress)
	}

	switch *exp {
	case "tab2":
		bench.RenderTable2(os.Stdout, rows)
	case "fig1":
		bench.RenderFig1(os.Stdout, rows)
	case "fig4":
		runFig4(sc, progress)
	case "fig5":
		bench.RenderFig5(os.Stdout, rows)
	case "fig6":
		bench.RenderFig6(os.Stdout, rows)
	case "fig7":
		bench.RenderFig7(os.Stdout, rows)
	case "tab3":
		bench.RenderTable3(os.Stdout, rows)
	case "all":
		fmt.Println("== Table 2 ==")
		bench.RenderTable2(os.Stdout, rows)
		fmt.Println("\n== Figure 1 ==")
		bench.RenderFig1(os.Stdout, rows)
		fmt.Println("\n== Figure 4 ==")
		runFig4(sc, progress)
		fmt.Println("\n== Figure 5 ==")
		bench.RenderFig5(os.Stdout, rows)
		fmt.Println("\n== Figure 6 ==")
		bench.RenderFig6(os.Stdout, rows)
		fmt.Println("\n== Figure 7 ==")
		bench.RenderFig7(os.Stdout, rows)
		fmt.Println("\n== Table 3 ==")
		bench.RenderTable3(os.Stdout, rows)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func collectRows(sc bench.Scale, reps int, subset string, progress *os.File) []bench.Row {
	wanted := map[string]bool{}
	if subset != "" {
		for _, name := range strings.Split(subset, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
	}
	var rows []bench.Row
	for _, ins := range bench.Suite() {
		if subset != "" && !wanted[ins.Name] {
			continue
		}
		g := ins.Build(sc)
		if progress != nil {
			fmt.Fprintf(progress, "# %s: n=%d m=%d\n", ins.Name, g.NumVertices(), g.NumEdges())
		}
		rows = append(rows, bench.RunRow(ins, g, reps))
	}
	return rows
}

func runFig4(sc bench.Scale, progress *os.File) {
	max := runtime.GOMAXPROCS(0)
	threads := []int{1}
	for p := 2; p < max; p *= 2 {
		threads = append(threads, p)
	}
	if max > 1 {
		threads = append(threads, max)
	}
	pts := bench.RunFig4(sc, threads, progress)
	bench.RenderFig4(os.Stdout, pts)
}
