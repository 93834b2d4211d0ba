package campaign

import (
	"sort"
	"sync"

	"followscent/internal/zmap"
)

// Merger accumulates results from every node with cross-shard
// deduplication: a shard that was partially scanned by a dead node and
// then re-scanned in full by the lease's next holder contributes each
// result once. The dedupe key is the full result minus the worker
// index, which is scheduling-dependent by design.
type Merger struct {
	mu    sync.Mutex
	seen  map[zmap.Result]int
	dupes int
}

// NewMerger returns an empty merger.
func NewMerger() *Merger { return &Merger{seen: make(map[zmap.Result]int)} }

// Add merges one result; it is a zmap.Handler and safe for concurrent
// use across nodes and workers.
func (g *Merger) Add(r zmap.Result) {
	r.Worker = 0
	g.mu.Lock()
	if g.seen[r]++; g.seen[r] > 1 {
		g.dupes++
	}
	g.mu.Unlock()
}

// Results returns the distinct merged results, sorted.
func (g *Merger) Results() []zmap.Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]zmap.Result, 0, len(g.seen))
	for r := range g.seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := a.Target.Cmp(b.Target); c != 0 {
			return c < 0
		}
		if c := a.From.Cmp(b.From); c != 0 {
			return c < 0
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Code < b.Code
	})
	return out
}

// Dupes counts results that arrived more than once — re-scanned shard
// overlap absorbed by the dedupe.
func (g *Merger) Dupes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dupes
}
