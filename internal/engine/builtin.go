package engine

import (
	"time"

	"repro/internal/bfsbcc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seqbcc"
	"repro/internal/smbcc"
	"repro/internal/tv"
)

// The built-in engines: FAST-BCC (the paper's algorithm, with and without
// the "Opt" connectivity ablation) and the three baselines it is evaluated
// against, plus Tarjan–Vishkin from the appendix. Registered here rather
// than in the algorithm packages so the registry is fully populated by
// importing this package alone; a new engine needs one entry (or its own
// init-time Register call).
func init() {
	Register(fastEngine{name: "fast"})
	Register(fastEngine{name: "fast-opt", localSearch: true})
	Register(seqEngine{})
	Register(gbbsEngine{})
	Register(smEngine{})
	Register(tvEngine{})
}

// fastEngine is FAST-BCC (core.BCC): the default engine and the only one
// that uses every RunOptions field.
type fastEngine struct {
	name        string
	localSearch bool
}

func (f fastEngine) Name() string { return f.name }
func (f fastEngine) Caps() Caps   { return Caps{} }
func (f fastEngine) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	return core.BCC(g, core.Options{
		Seed:        opt.Seed,
		LocalSearch: f.localSearch || opt.LocalSearch,
		Scratch:     opt.Scratch,
		Exec:        opt.Context(),
	}), nil
}

// seqEngine is sequential Hopcroft–Tarjan (the paper's SEQ baseline and
// the repository's correctness oracle), adapted to the label/head
// representation with FromBlocks.
type seqEngine struct{}

func (seqEngine) Name() string { return "seq" }
func (seqEngine) Caps() Caps   { return Caps{Sequential: true, Deterministic: true} }
func (seqEngine) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	t0 := time.Now()
	sr := seqbcc.BCC(g)
	res := FromBlocks(g, sr.Blocks)
	res.Times.LastCC = time.Since(t0)
	return res, nil
}

// gbbsEngine is the BFS-skeleton baseline; it natively produces
// core.Result, so no adaptation is needed.
type gbbsEngine struct{}

func (gbbsEngine) Name() string { return "gbbs" }
func (gbbsEngine) Caps() Caps   { return Caps{} }
func (gbbsEngine) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	return bfsbcc.BCC(g, bfsbcc.Options{Seed: opt.Seed, Exec: opt.Context()}), nil
}

// smEngine is the SM'14-style baseline. Its raw form supports only
// connected inputs (the paper's Tab. 2 "n" entries); the ConnectedOnly
// capability makes the registry install the per-component normalizer, so
// the registered engine accepts any graph.
type smEngine struct{}

func (smEngine) Name() string { return "sm14" }
func (smEngine) Caps() Caps {
	return Caps{ConnectedOnly: true, Deterministic: true}
}
func (smEngine) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	t0 := time.Now()
	sr, err := smbcc.BCC(g, smbcc.Options{Source: opt.Source, Exec: opt.Context()})
	if err != nil {
		return nil, err
	}
	res := FromBlocks(g, sr.Blocks())
	res.Times.Rooting = sr.Times.Rooting
	res.Times.LastCC = time.Since(t0) - sr.Times.Rooting
	return res, nil
}

// runBlocks hands the per-component normalizer the native block list,
// skipping the per-subgraph Result adaptation.
func (smEngine) runBlocks(g *graph.Graph, opt RunOptions) ([][]int32, error) {
	sr, err := smbcc.BCC(g, smbcc.Options{Source: opt.Source, Exec: opt.Context()})
	if err != nil {
		return nil, err
	}
	return sr.Blocks(), nil
}

// tvEngine is Tarjan–Vishkin (Appendix A): per-edge components, adapted
// via its materialized block list.
type tvEngine struct{}

func (tvEngine) Name() string { return "tv" }
func (tvEngine) Caps() Caps   { return Caps{Deterministic: true} }
func (tvEngine) Run(g *graph.Graph, opt RunOptions) (*core.Result, error) {
	t0 := time.Now()
	e := opt.Context()
	tr := tv.BCC(g, tv.Options{Seed: opt.Seed, LocalSearch: opt.LocalSearch, Exec: e})
	res := FromBlocks(g, tr.Blocks())
	res.Times = tr.Times
	res.Times.LastCC += time.Since(t0) - tr.Times.Total()
	res.AuxBytes = tr.AuxBytes
	return res, nil
}
