package fastbcc_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	fastbcc "repro"
	"repro/internal/persist"
)

// pinnedEdges is the graph of testdata/snapshot-format1.fbcc: triangle
// 0-1-2, bridge 2-3, square 3-4-5-6 and the isolated vertex 7, as loaded.
// The file's snapshot also carries the fast-class insert (3,5) in its
// overlay, at version 2.
var pinnedEdges = []fastbcc.Edge{
	{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0},
	{U: 2, W: 3},
	{U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 6}, {U: 6, W: 3},
}

// Snapshot section IDs this file reads or rewrites (durable.go).
const (
	secRetiredBCTOffsets = 10
	secRetiredBCTAdj     = 11
	secBCPar             = 13
	secBCTourDepth       = 17
	secBRPar             = 20
	secBRTourDepth       = 23
)

// TestDurableParentFormatRecovers recovers a snapshot file that an older
// build wrote, so a change to the format cannot strand the files on
// disk. testdata/snapshot-format1.fbcc was written by commit e2ed034,
// which still stored the block-cut tree's CSR in sections 10 and 11:
// Load "pinned" with pinnedEdges on 8 vertices in a durable store, then
// ApplyBatch the fast-class insert (3,5), then Persist. Recovered with
// VerifyOnLoad off and on, it must answer like a fresh Load of the same
// edges plus the insert.
func TestDurableParentFormatRecovers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot-format1.fbcc"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := fastbcc.NewStore(2)
	defer fresh.Close()
	want, err := fresh.Load(context.Background(), "pinned",
		mustGraph(t, 8, append(slices.Clone(pinnedEdges), fastbcc.Edge{U: 3, W: 5})), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()

	for _, verify := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "g-pinned", "snapshot.fbcc")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := persist.OpenMapped(path, true)
		if err != nil {
			t.Fatal(err)
		}
		_, has10 := m.Section(secRetiredBCTOffsets)
		_, has11 := m.Section(secRetiredBCTAdj)
		m.Release()
		if !has10 || !has11 {
			t.Fatal("the pinned file no longer carries the retired sections 10 and 11")
		}

		s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{Workers: 2, DataDir: dir, VerifyOnLoad: verify})
		rep, err := s.Recover(context.Background())
		if err != nil || len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
			s.Close()
			t.Fatalf("VerifyOnLoad=%v: recovery %+v, %v", verify, rep, err)
		}
		got, err := s.Acquire("pinned")
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		if got.Version != 2 || got.OverlayEdges() != 1 || got.NumEdges() != want.NumEdges() {
			t.Errorf("VerifyOnLoad=%v: version %d, %d overlay edges, %d edges; want 2, 1, %d",
				verify, got.Version, got.OverlayEdges(), got.NumEdges(), want.NumEdges())
		}
		diffEveryQuery(t, "pinned", 8, got.Index, want.Index)
		got.Release()
		s.Close()
	}
}

// diffEveryQuery compares every query the Index answers on every vertex
// pair, and Separates on every triple.
func diffEveryQuery(t *testing.T, tag string, n int, got, want *fastbcc.Index) {
	t.Helper()
	diffIndexes(t, tag, n, got, want)
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if g, w := got.CutsOnPath(u, v), want.CutsOnPath(u, v); !slices.Equal(g, w) {
				t.Fatalf("%s: CutsOnPath(%d,%d) = %v, want %v", tag, u, v, g, w)
			}
			if g, w := got.BridgesOnPath(u, v), want.BridgesOnPath(u, v); !slices.Equal(g, w) {
				t.Fatalf("%s: BridgesOnPath(%d,%d) = %v, want %v", tag, u, v, g, w)
			}
			for x := int32(0); x < int32(n); x++ {
				if g, w := got.Separates(x, u, v), want.Separates(x, u, v); g != w {
					t.Fatalf("%s: Separates(%d,%d,%d) = %v, want %v", tag, x, u, v, g, w)
				}
			}
		}
	}
}

func mustGraph(t *testing.T, n int, edges []fastbcc.Edge) *fastbcc.Graph {
	t.Helper()
	g, err := fastbcc.NewGraphFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDurableSnapshotFormat: a new snapshot stores the block-cut tree as
// its parents only, so the retired sections 10 and 11 are absent, and
// the meta format stays 1, so older readers see a format they know.
func TestDurableSnapshotFormat(t *testing.T) {
	path := persistPinned(t)
	m, err := persist.OpenMapped(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for _, id := range []uint32{secRetiredBCTOffsets, secRetiredBCTAdj} {
		if _, ok := m.Section(id); ok {
			t.Errorf("new snapshot carries retired section %d", id)
		}
	}
	var meta struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(m.Meta(), &meta); err != nil || meta.Format != 1 {
		t.Errorf("meta format %d (%v), want 1", meta.Format, err)
	}
}

// TestDurableRecoveredResultBuildsIndex: a recovered snapshot's Result
// reads its arrays, the block-cut tree's parents among them, straight
// from the read-only file mapping. Building another Index over it must
// only read them, since a write there faults, and must answer like the
// restored one.
func TestDurableRecoveredResultBuildsIndex(t *testing.T) {
	path := persistPinned(t)
	s := durableStore(filepath.Dir(filepath.Dir(path)))
	defer s.Close()
	rep, err := s.Recover(context.Background())
	if err != nil || len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
		t.Fatalf("recovery %+v, %v", rep, err)
	}
	snap, err := s.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	diffEveryQuery(t, "rebuilt", 8, fastbcc.NewIndex(snap.Graph, snap.Result), snap.Index)
}

// persistPinned loads pinnedEdges as "pinned" into a durable store under
// a fresh directory, persists it, and returns the snapshot file's path.
func persistPinned(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := durableStore(dir)
	snap, err := s.Load(context.Background(), "pinned", mustGraph(t, 8, pinnedEdges), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := s.Persist("pinned"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return filepath.Join(dir, "g-pinned", "snapshot.fbcc")
}

// TestDurableCorruptForestRefused: the path queries walk the block-cut
// tree's parents (section 13) and the bridge forest's (section 20) up to
// the depth of the path's LCA, a minimum over the tour depths (sections
// 17 and 23). A snapshot whose parents are out of range, whose non-root
// nodes are their own parents, or whose tour depths are negative would
// panic or never return on its first path query. Each file carries valid
// checksums, so only the restore's checks can refuse it: Recover must
// report the graph as failed and not serve it.
func TestDurableCorruptForestRefused(t *testing.T) {
	outOfRange := func(par []int32) {
		for v, p := range par {
			if p != -1 {
				par[v] = 1 << 28
				return
			}
		}
	}
	selfParent := func(par []int32) {
		for v, p := range par {
			if p != -1 {
				par[v] = int32(v)
			}
		}
	}
	negative := func(depth []int32) {
		for i := range depth {
			depth[i] = -1
		}
	}
	for _, c := range []struct {
		name    string
		section uint32
		corrupt func([]int32)
	}{
		{"block-cut/out-of-range", secBCPar, outOfRange},
		{"block-cut/self-parent", secBCPar, selfParent},
		{"block-cut/negative-tour-depth", secBCTourDepth, negative},
		{"bridge/out-of-range", secBRPar, outOfRange},
		{"bridge/self-parent", secBRPar, selfParent},
		{"bridge/negative-tour-depth", secBRTourDepth, negative},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := persistPinned(t)
			rewriteSection(t, path, c.section, c.corrupt)
			s := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{Workers: 2, DataDir: filepath.Dir(filepath.Dir(path))})
			defer s.Close()
			rep, err := s.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Graphs) != 0 || len(rep.Failures) != 1 {
				t.Fatalf("recovery report: %+v", rep)
			}
			t.Logf("refused: %s", rep.Failures[0].Error)
			if snap, err := s.Acquire("pinned"); err == nil {
				snap.Release()
				t.Fatal("a snapshot with a corrupt forest is serving")
			}
		})
	}
}

// rewriteSection rewrites the snapshot at path with section id passed
// through corrupt, under fresh checksums.
func rewriteSection(t *testing.T, path string, id uint32, corrupt func([]int32)) {
	t.Helper()
	m, err := persist.OpenMapped(path, true)
	if err != nil {
		t.Fatal(err)
	}
	meta := slices.Clone(m.Meta())
	var secs []persist.Section
	found := false
	for sid := uint32(0); sid < persist.MaxSections; sid++ {
		a, ok := m.Section(sid)
		if !ok {
			continue
		}
		a = slices.Clone(a)
		if sid == id {
			corrupt(a)
			found = true
		}
		secs = append(secs, persist.Section{ID: sid, Data: a})
	}
	m.Release()
	if !found {
		t.Fatalf("snapshot has no section %d", id)
	}
	if _, err := persist.WriteSnapshot(path, meta, secs); err != nil {
		t.Fatal(err)
	}
}
