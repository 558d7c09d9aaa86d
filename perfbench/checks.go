package main

import (
	"fmt"
	"sort"

	"lazarus/internal/bft"
	"lazarus/internal/transport"
)

// checkExecTraces reports every sequence number at which two replicas'
// ExecTrace digests differ.
func checkExecTraces(traces map[transport.NodeID][]bft.ExecRecord) []string {
	ids := make([]transport.NodeID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	first := make(map[uint64]bft.ExecRecord)
	owner := make(map[uint64]transport.NodeID)
	var v []string
	for _, id := range ids {
		for _, rec := range traces[id] {
			prev, ok := first[rec.Seq]
			if !ok {
				first[rec.Seq], owner[rec.Seq] = rec, id
				continue
			}
			if prev.Digest != rec.Digest {
				v = append(v, fmt.Sprintf("replicas %d and %d executed different batches at seq %d (%x vs %x)",
					owner[rec.Seq], id, rec.Seq, prev.Digest[:4], rec.Digest[:4]))
			}
		}
	}
	return v
}

// checkAppHistories reports every operation index at which two
// application instances' execution chains differ.
func checkAppHistories(apps []*appWrap) []string {
	first := make(map[uint64][32]byte)
	owner := make(map[uint64]transport.NodeID)
	var v []string
	for _, a := range apps {
		a.mu.Lock()
		idx := make([]uint64, 0, len(a.history))
		for i := range a.history {
			idx = append(idx, i)
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
		for _, i := range idx {
			h := a.history[i]
			prev, ok := first[i]
			if !ok {
				first[i], owner[i] = h, a.node
				continue
			}
			if prev != h && len(v) < 20 {
				v = append(v, fmt.Sprintf("replicas %d and %d diverge at operation %d", owner[i], a.node, i))
			}
		}
		a.mu.Unlock()
	}
	return v
}

// lagging counts positions below the group maximum.
func lagging(positions []uint64) int {
	var top uint64
	for _, p := range positions {
		top = max(top, p)
	}
	n := 0
	for _, p := range positions {
		if p < top {
			n++
		}
	}
	return n
}
