package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	fastbcc "repro"
	"repro/internal/seqbcc"
	"repro/internal/wire"
)

// want is the decomposition every snapshot of the run must reproduce,
// from one Hopcroft–Tarjan (seqbcc) run at set-up.
type want struct{ blocks, cuts, bridges int }

func seqWant(g *fastbcc.Graph) want {
	r := seqbcc.BCC(g)
	return want{r.NumBCC(), len(r.ArticulationPoints()), len(r.Bridges())}
}

func (w want) check(s *fastbcc.Snapshot) error {
	got := want{s.Result.NumBCC, s.Index.NumCutVertices(), s.Index.NumBridges()}
	if got != w {
		return fmt.Errorf("snapshot v%d: blocks/cuts/bridges = %d/%d/%d, seqbcc says %d/%d/%d",
			s.Version, got.blocks, got.cuts, got.bridges, w.blocks, w.cuts, w.bridges)
	}
	return nil
}

// batchSize is the number of queries in one binary batch.
const batchSize = 64

// oracle is the serving query pool and its answers, fixed at
// set-up from the base snapshot. The churn never changes an answer, so
// every response of the run is checked against it.
type oracle struct {
	frames    [][]byte // batches as wire request frames
	batchAns  [][]fastbcc.Answer
	paths     []string // scalar queries as GET paths
	scalarOps []fastbcc.QueryOp
	scalarAns []fastbcc.Answer
}

// newOracle draws the pool from seed. Half the vertices are uniform, half
// are endpoints of uniform edges (so hubs and blocks are queried, not
// only isolated vertices); the six ops are equally likely.
func newOracle(sz size, seed uint64, g *fastbcc.Graph, base *fastbcc.Snapshot) (*oracle, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6f7261636c65))
	edges := g.Edges()
	n := g.NumVertices()
	vertex := func() int32 {
		if len(edges) == 0 || rng.IntN(2) == 0 {
			return int32(rng.IntN(n))
		}
		e := edges[rng.IntN(len(edges))]
		if rng.IntN(2) == 0 {
			return e.U
		}
		return e.W
	}
	query := func() fastbcc.Query {
		return fastbcc.Query{Op: fastbcc.QueryOp(1 + rng.IntN(6)), U: vertex(), V: vertex(), X: vertex()}
	}
	o := &oracle{}
	ctx := context.Background()
	for b := 0; b < sz.batches; b++ {
		qs := make([]fastbcc.Query, batchSize)
		for i := range qs {
			qs[i] = query()
		}
		ans, err := base.QueryBatch(ctx, qs, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle batch %d: %w", b, err)
		}
		o.frames = append(o.frames, wire.AppendRequest(nil, qs))
		o.batchAns = append(o.batchAns, ans)
	}
	qs := make([]fastbcc.Query, sz.scalars)
	for i := range qs {
		q := query()
		qs[i] = q
		p := fmt.Sprintf("/v1/graphs/g/query/%s?u=%d&v=%d", q.Op, q.U, q.V)
		if q.Op == fastbcc.OpSeparates {
			p += fmt.Sprintf("&x=%d", q.X)
		}
		o.paths = append(o.paths, p)
		o.scalarOps = append(o.scalarOps, q.Op)
	}
	ans, err := base.QueryBatch(ctx, qs, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle scalars: %w", err)
	}
	o.scalarAns = ans
	return o, nil
}

// checkBatch reports whether answers equal batch b's oracle answers.
func (o *oracle) checkBatch(b int, got []fastbcc.Answer) bool {
	want := o.batchAns[b]
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// scalarBody is the part of a scalar query response the check reads:
// boolean ops answer in "result", counting ops (cuts, bridges) in "count".
type scalarBody struct {
	Result *bool `json:"result"`
	Count  *int  `json:"count"`
}

// checkScalar reports whether a scalar JSON response body carries
// scalar query i's oracle answer.
func (o *oracle) checkScalar(i int, body []byte) bool {
	var sb scalarBody
	if json.Unmarshal(body, &sb) != nil {
		return false
	}
	want := o.scalarAns[i]
	if o.scalarOps[i].Counts() {
		return sb.Count != nil && *sb.Count == want.Count()
	}
	return sb.Result != nil && *sb.Result == want.Bool()
}
