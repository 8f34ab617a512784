package compiler

import (
	"math/rand"
	"slices"
	"testing"
)

// addEdgeScan is the scheduler's former addEdge: it scans from's successors
// for a duplicate. It is the oracle for addEdge's last-successor check.
func addEdgeScan(nodes []schedNode, from, to int32) {
	if from == to {
		return
	}
	for _, s := range nodes[from].succs {
		if s == to {
			return
		}
	}
	nodes[from].succs = append(nodes[from].succs, to)
	nodes[to].preds = append(nodes[to].preds, from)
}

// TestAddEdgeMatchesScan builds random dependence graphs the way both graph
// builders do — every edge into idx added while processing idx, idx rising —
// with repeated and self edges, and holds addEdge's successor and
// predecessor lists to the scanning oracle's, element by element.
func TestAddEdgeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		got := make([]schedNode, n)
		want := make([]schedNode, n)
		for idx := int32(0); idx < int32(n); idx++ {
			for e := rng.Intn(3 * int(idx+1)); e > 0; e-- {
				from := int32(rng.Intn(int(idx) + 1))
				addEdge(got, from, idx)
				addEdgeScan(want, from, idx)
			}
		}
		for i := range got {
			if !slices.Equal(got[i].succs, want[i].succs) || !slices.Equal(got[i].preds, want[i].preds) {
				t.Fatalf("trial %d node %d: succs %v preds %v, scan gives %v %v",
					trial, i, got[i].succs, got[i].preds, want[i].succs, want[i].preds)
			}
		}
	}
}
