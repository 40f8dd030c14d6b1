package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/bfsbcc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqbcc"
	"repro/internal/smbcc"
	"repro/internal/tv"
)

// Meta summarizes one instance the way Tab. 2's left half does.
type Meta struct {
	Name, Category string
	N, M           int
	Diam           int32
	NumBCC         int
	BCC1Pct        float64 // size of the largest BCC / n
}

// ComputeMeta derives the Tab. 2 metadata columns for g.
func ComputeMeta(ins Instance, g *graph.Graph) Meta {
	res := core.BCC(g, core.Options{Seed: 1})
	counts := make([]int32, res.NumLabels)
	for v, l := range res.Label {
		if res.Parent[v] != -1 {
			counts[l]++
		}
	}
	var largest int32
	for l, c := range counts {
		if res.Head[l] != -1 && c+1 > largest {
			largest = c + 1 // members plus head
		}
	}
	pct := 0.0
	if g.NumVertices() > 0 {
		pct = 100 * float64(largest) / float64(g.NumVertices())
	}
	return Meta{
		Name:     ins.Name,
		Category: ins.Category,
		N:        g.NumVertices(),
		M:        g.NumEdges(),
		Diam:     graph.ApproxDiameter(g, 0),
		NumBCC:   res.NumBCC,
		BCC1Pct:  pct,
	}
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	ts := make([]time.Duration, reps)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0)
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts[reps/2]
}

// withProcs runs f with the worker count temporarily set to p.
func withProcs(p int, f func()) {
	old := parallel.SetProcs(p)
	defer parallel.SetProcs(old)
	f()
}

// Row is one line of Tab. 2: times for every algorithm on one graph.
type Row struct {
	Meta
	OursPar, OursSeq time.Duration
	GBBSPar, GBBSSeq time.Duration
	SMPar            time.Duration // zero if unsupported
	SMSupported      bool
	Seq              time.Duration
	TVPar            time.Duration
	OursSteps        core.StepTimes
	GBBSSteps        core.StepTimes
	OursOptPar       time.Duration // LocalSearch variant ("Opt", Fig. 6)
	OursOptSteps     core.StepTimes
	OursAux, GBBSAux int64
	TVAux            int64
}

// RunRow measures all algorithms on one instance.
func RunRow(ins Instance, g *graph.Graph, reps int) Row {
	row := Row{Meta: ComputeMeta(ins, g)}

	var cres *core.Result
	row.OursPar = timeMedian(reps, func() { cres = core.BCC(g, core.Options{Seed: 7}) })
	row.OursSteps = cres.Times
	row.OursAux = cres.AuxBytes
	withProcs(1, func() {
		row.OursSeq = timeMedian(1, func() { core.BCC(g, core.Options{Seed: 7}) })
	})

	var copt *core.Result
	row.OursOptPar = timeMedian(reps, func() {
		copt = core.BCC(g, core.Options{Seed: 7, LocalSearch: true})
	})
	row.OursOptSteps = copt.Times

	var gres *core.Result
	row.GBBSPar = timeMedian(reps, func() { gres = bfsbcc.BCC(g, bfsbcc.Options{Seed: 7}) })
	row.GBBSSteps = gres.Times
	row.GBBSAux = gres.AuxBytes
	withProcs(1, func() {
		row.GBBSSeq = timeMedian(1, func() { bfsbcc.BCC(g, bfsbcc.Options{Seed: 7}) })
	})

	row.Seq = timeMedian(reps, func() { seqbcc.BCC(g) })

	if _, err := smbcc.BCC(g, smbcc.Options{}); err == nil {
		row.SMSupported = true
		row.SMPar = timeMedian(reps, func() { smbcc.BCC(g, smbcc.Options{}) })
	}

	var tres *tv.Result
	row.TVPar = timeMedian(reps, func() { tres = tv.BCC(g, tv.Options{Seed: 7}) })
	row.TVAux = tres.AuxBytes
	return row
}

func secs(d time.Duration) string {
	if d == 0 {
		return "n"
	}
	return fmt.Sprintf("%.3f", d.Seconds())
}

func speedup(seq, par time.Duration) float64 {
	if par == 0 {
		return 0
	}
	return float64(seq) / float64(par)
}

// geomean of positive values; zero values are skipped.
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// RenderTable2 prints the Tab. 2 analogue.
func RenderTable2(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tn\tm\tD\t#BCC\t|BCC1|%\tours-par\tours-seq\tours-spd\tgbbs-par\tgbbs-seq\tgbbs-spd\tsm14\tseq\tTbest/ours")
	cat := ""
	for _, r := range rows {
		if r.Category != cat {
			cat = r.Category
			fmt.Fprintf(tw, "[%s]\t\t\t\t\t\t\t\t\t\t\t\t\t\t\n", cat)
		}
		sm := "n"
		best := r.Seq
		if r.GBBSPar < best {
			best = r.GBBSPar
		}
		if r.SMSupported {
			sm = secs(r.SMPar)
			if r.SMPar < best {
				best = r.SMPar
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\t%s\t%s\t%.1f\t%s\t%s\t%.1f\t%s\t%s\t%.2f\n",
			r.Name, r.N, r.M, r.Diam, r.NumBCC, r.BCC1Pct,
			secs(r.OursPar), secs(r.OursSeq), speedup(r.OursSeq, r.OursPar),
			secs(r.GBBSPar), secs(r.GBBSSeq), speedup(r.GBBSSeq, r.GBBSPar),
			sm, secs(r.Seq), speedup(best, r.OursPar))
	}
	tw.Flush()
}

// RenderFig1 prints the Fig. 1 heatmap analogue: speedups over SEQ, with
// per-category and total geometric means.
func RenderFig1(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tOurs\tGBBS\tSM'14\tSEQ")
	perCat := map[string][3][]float64{}
	var tot [3][]float64
	cat := ""
	flushCat := func() {
		if cat == "" {
			return
		}
		v := perCat[cat]
		fmt.Fprintf(tw, "MEAN(%s)\t%.2f\t%.2f\t%.2f\t1.00\n", cat,
			geomean(v[0]), geomean(v[1]), geomean(v[2]))
	}
	for _, r := range rows {
		if r.Category != cat {
			flushCat()
			cat = r.Category
		}
		ours := speedup(r.Seq, r.OursPar)
		gbbs := speedup(r.Seq, r.GBBSPar)
		sm := 0.0
		smStr := "n"
		if r.SMSupported {
			sm = speedup(r.Seq, r.SMPar)
			smStr = fmt.Sprintf("%.2f", sm)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\t1.00\n", r.Name, ours, gbbs, smStr)
		v := perCat[cat]
		v[0] = append(v[0], ours)
		v[1] = append(v[1], gbbs)
		v[2] = append(v[2], sm)
		perCat[cat] = v
		tot[0] = append(tot[0], ours)
		tot[1] = append(tot[1], gbbs)
		tot[2] = append(tot[2], sm)
	}
	flushCat()
	fmt.Fprintf(tw, "TOTAL MEAN\t%.2f\t%.2f\t%.2f\t1.00\n",
		geomean(tot[0]), geomean(tot[1]), geomean(tot[2]))
	tw.Flush()
}

// Fig4Graphs are the five scalability instances of Fig. 4.
func Fig4Graphs() []string { return []string{"TW", "SD", "USA", "GL5", "REC"} }

// Fig4Point is one scalability measurement.
type Fig4Point struct {
	Graph   string
	Threads int
	Ours    float64 // speedup over SEQ
	GBBS    float64
	SM      float64 // 0 if unsupported
	TV      float64
}

// RunFig4 sweeps thread counts on the Fig. 4 graphs.
func RunFig4(sc Scale, threads []int, progress io.Writer) []Fig4Point {
	var pts []Fig4Point
	for _, name := range Fig4Graphs() {
		ins, ok := ByName(name)
		if !ok {
			continue
		}
		g := ins.Build(sc)
		if progress != nil {
			fmt.Fprintf(progress, "# fig4 %s (n=%d m=%d)\n", name, g.NumVertices(), g.NumEdges())
		}
		seq := timeMedian(1, func() { seqbcc.BCC(g) })
		smOK := false
		if _, err := smbcc.BCC(g, smbcc.Options{}); err == nil {
			smOK = true
		}
		for _, p := range threads {
			pt := Fig4Point{Graph: name, Threads: p}
			withProcs(p, func() {
				ours := timeMedian(1, func() { core.BCC(g, core.Options{Seed: 7}) })
				gbbs := timeMedian(1, func() { bfsbcc.BCC(g, bfsbcc.Options{Seed: 7}) })
				tvt := timeMedian(1, func() { tv.BCC(g, tv.Options{Seed: 7}) })
				pt.Ours = speedup(seq, ours)
				pt.GBBS = speedup(seq, gbbs)
				pt.TV = speedup(seq, tvt)
				if smOK {
					smt := timeMedian(1, func() { smbcc.BCC(g, smbcc.Options{}) })
					pt.SM = speedup(seq, smt)
				}
			})
			pts = append(pts, pt)
		}
	}
	return pts
}

// RenderFig4 prints the scalability series.
func RenderFig4(w io.Writer, pts []Fig4Point) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tthreads\tOurs\tGBBS\tSM'14\tTV'85")
	for _, p := range pts {
		sm := "n"
		if p.SM > 0 {
			sm = fmt.Sprintf("%.2f", p.SM)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%s\t%.2f\n", p.Graph, p.Threads, p.Ours, p.GBBS, sm, p.TV)
	}
	tw.Flush()
}

// RenderFig5 prints the per-step breakdown of FAST-BCC vs the GBBS-style
// baseline (Fig. 5).
func RenderFig5(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\talg\tFirstCC\tRooting\tTagging\tLastCC\ttotal")
	for _, r := range rows {
		o, g := r.OursSteps, r.GBBSSteps
		fmt.Fprintf(tw, "%s\tOurs\t%s\t%s\t%s\t%s\t%s\n", r.Name,
			secs(o.FirstCC), secs(o.Rooting), secs(o.Tagging), secs(o.LastCC), secs(o.Total()))
		fmt.Fprintf(tw, "%s\tGBBS\t%s\t%s\t%s\t%s\t%s\n", r.Name,
			secs(g.FirstCC), secs(g.Rooting), secs(g.Tagging), secs(g.LastCC), secs(g.Total()))
	}
	tw.Flush()
}

// RenderFig6 prints the Orig vs Opt (hash bag + local search) ablation.
func RenderFig6(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tvariant\tFirstCC\tRooting\tTagging\tLastCC\ttotal\tOrig/Opt")
	var ratios []float64
	for _, r := range rows {
		o, p := r.OursSteps, r.OursOptSteps
		ratio := speedup(r.OursPar, r.OursOptPar)
		ratios = append(ratios, ratio)
		fmt.Fprintf(tw, "%s\tOrig\t%s\t%s\t%s\t%s\t%s\t\n", r.Name,
			secs(o.FirstCC), secs(o.Rooting), secs(o.Tagging), secs(o.LastCC), secs(o.Total()))
		fmt.Fprintf(tw, "%s\tOpt\t%s\t%s\t%s\t%s\t%s\t%.2f\n", r.Name,
			secs(p.FirstCC), secs(p.Rooting), secs(p.Tagging), secs(p.LastCC), secs(p.Total()), ratio)
	}
	fmt.Fprintf(tw, "MEAN\t\t\t\t\t\t\t%.2f\n", geomean(ratios))
	tw.Flush()
}

// RenderFig7 prints relative space usage (normalized to the smallest),
// reproducing Fig. 7's comparison of FAST-BCC, GBBS, and Tarjan–Vishkin.
func RenderFig7(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tFAST-BCC\tGBBS\tTarjan-Vishkin")
	for _, r := range rows {
		minB := r.OursAux
		if r.GBBSAux < minB {
			minB = r.GBBSAux
		}
		if r.TVAux < minB {
			minB = r.TVAux
		}
		if minB == 0 {
			minB = 1
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", r.Name,
			float64(r.OursAux)/float64(minB),
			float64(r.GBBSAux)/float64(minB),
			float64(r.TVAux)/float64(minB))
	}
	tw.Flush()
}

// RenderTable3 prints Tab. 3: Tarjan–Vishkin vs the others.
func RenderTable3(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tOurs\tGBBS\tTV\tSEQ")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Name,
			secs(r.OursPar), secs(r.GBBSPar), secs(r.TVPar), secs(r.Seq))
	}
	tw.Flush()
}
