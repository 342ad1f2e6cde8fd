package analysis

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// ReconstructParallel is ReconstructFrom with the Figure-4 state machine
// fanned out over a worker pool: ReconstructChains over every chain.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 is exactly the sequential
// path. The Source must tolerate concurrent Events calls (both stores do:
// logdb locks the whole map, tracestore locks per shard).
func ReconstructParallel(db Source, workers int) *DSCG {
	return ReconstructChains(db, db.Chains(), workers)
}

// ReconstructChains reconstructs the DSCG over the given chains only:
// the Figure-4 parse of each chain, then AssembleParsed over the set.
// Chains are keyed by a constant-size Function UUID and their event lists
// are disjoint, so the parse phase is embarrassingly parallel; only the
// (cheap) tree grouping and oneway stitching tail runs sequentially. The
// result — trees, node order, anomaly order — is identical for every
// worker count: workers write their output into the chain's own slot and
// assembly walks chains in the order given.
//
// chains must be sorted as Source.Chains sorts them. Over all of a
// source's chains the result is the full DSCG. Over a set closed under
// chain links (LinkComponent) it is the full DSCG restricted to that set:
// stitching only follows link edges, so chains outside the set neither
// adopt nor are adopted by chains inside it, and trees, anomalies and
// broken invocations of the set's chains come out the same and in the same
// relative order.
func ReconstructChains(db Source, chains []uuid.UUID, workers int) *DSCG {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chains) {
		workers = len(chains)
	}
	parsed := make([]ParsedChain, len(chains))
	if workers <= 1 {
		for i, chain := range chains {
			parsed[i] = ParseChainEvents(chain, db.Events(chain))
		}
		return AssembleParsed(db, chains, parsed)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chains) {
					return
				}
				parsed[i] = ParseChainEvents(chains[i], db.Events(chains[i]))
			}
		}()
	}
	wg.Wait()
	return AssembleParsed(db, chains, parsed)
}

// LinkComponent returns the seed chains together with every chain reachable
// from them over link records in either direction (parent to child and
// child to parent), sorted. The set is closed under the links stitching
// can follow, so ReconstructChains over it yields the seeds' trees exactly
// as the full reconstruction does. Chains named only by a link (no events)
// may appear in the result; reconstruction skips them.
func LinkComponent(links []probe.Record, seeds ...uuid.UUID) []uuid.UUID {
	adj := make(map[uuid.UUID][]uuid.UUID)
	for i := range links {
		p, c := links[i].LinkParent, links[i].LinkChild
		adj[p] = append(adj[p], c)
		adj[c] = append(adj[c], p)
	}
	seen := make(map[uuid.UUID]bool, len(seeds))
	var out []uuid.UUID
	queue := append([]uuid.UUID(nil), seeds...)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
		queue = append(queue, adj[c]...)
	}
	sort.Slice(out, func(i, j int) bool { return uuid.Compare(out[i], out[j]) < 0 })
	return out
}
