package analysis

import (
	"math/rand"
	"testing"
	"time"

	"causeway/internal/probe"
)

// RandomRunRecords runs n random call trees (genRandomTree) through the
// real probes with the given aspects armed, each tree on fresh chains, and
// returns every record collected. It gives the external equivalence tests
// in package analysis_test the same random stores the property tests use.
func RandomRunRecords(t testing.TB, seed int64, n int, aspects probe.Aspect) []probe.Record {
	r := rand.New(rand.NewSource(seed))
	h := newHarness(t, aspects)
	for i := 0; i < n; i++ {
		counter := 0
		h.execute(genRandomTree(r, 4, &counter), time.Millisecond)
		h.p.Tunnel().Clear()
	}
	return h.sink.Snapshot()
}
