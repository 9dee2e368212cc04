package hierarchy

import (
	"bytes"
	"fmt"
	"sort"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/check"
	"futurebus/internal/core"
)

// ClusterViolation is one breach of the cluster-level invariants.
type ClusterViolation struct {
	Cluster int
	Addr    bus.Addr
	Reason  string
}

func (v ClusterViolation) String() string {
	return fmt.Sprintf("cluster %d line %#x: %s", v.Cluster, uint64(v.Addr), v.Reason)
}

// CheckClusters verifies the intra-cluster invariants of the design on
// a quiesced system:
//
//  1. No cluster cache holds E or M — the bridge's unconditional CH
//     pins every cluster line into the S/O pair, which is what keeps
//     the bridge's copy current.
//  2. At most one cluster cache owns (O) a line within the cluster
//     (core.InvSingleOwner), reported once per line.
//  3. Inclusion: every line a cluster cache holds is tracked by its
//     bridge.
//  4. Currency: every valid cluster copy is byte-identical to the
//     bridge's copy.
func (s *System) CheckClusters() []ClusterViolation {
	var out []ClusterViolation
	for _, cl := range s.Clusters {
		out = append(out, checkCluster(cl)...)
	}
	return out
}

func checkCluster(cl *Cluster) []ClusterViolation {
	var out []ClusterViolation
	bad := func(addr bus.Addr, format string, args ...any) {
		out = append(out, ClusterViolation{Cluster: cl.ID, Addr: addr, Reason: fmt.Sprintf(format, args...)})
	}

	bridgeLines := map[bus.Addr][]byte{}
	cl.Bridge.Store().ForEachLine(func(addr bus.Addr, st core.State, data []byte) {
		bridgeLines[addr] = data
	})

	census := map[bus.Addr]core.Census{}
	for _, c := range cl.Caches {
		id := c.ID()
		c.ForEachLine(func(addr bus.Addr, st core.State, data []byte) {
			if st == core.Exclusive || st == core.Modified {
				bad(addr, "cache %d holds %s; the bridge's CH must pin cluster lines to S/O", id, st.Letter())
			}
			lc := census[addr]
			lc.Add(st, 1)
			census[addr] = lc
			bline, ok := bridgeLines[addr]
			if !ok {
				bad(addr, "cache %d holds a line the bridge does not track (inclusion broken)", id)
				return
			}
			if !bytes.Equal(data, bline) {
				bad(addr, "cache %d copy differs from the bridge's (bridge stale)", id)
			}
		})
	}
	// The bridge's copy stands in for memory and rule 4 checks it, so
	// only the ownership rule is judged here.
	n := len(out)
	for addr, lc := range census {
		if lc.Breaches(true).Has(core.InvSingleOwner) {
			bad(addr, "%s: %d cluster caches own the line", core.InvSingleOwner, lc.Owners)
		}
	}
	owned := out[n:]
	sort.Slice(owned, func(i, j int) bool { return owned[i].Addr < owned[j].Addr })
	return out
}

// MustPass runs both levels of checking — the global single-bus
// invariants over the bridges, and the cluster invariants — plus any
// deferred bridge error.
func (s *System) MustPass() error {
	if err := s.Err(); err != nil {
		return err
	}
	if err := s.GlobalChecker().MustPass(); err != nil {
		return fmt.Errorf("hierarchy global level: %w", err)
	}
	return check.Failure("hierarchy cluster level:", s.CheckClusters())
}

// Stats aggregates traffic over the tree for the scaling experiment.
type Stats struct {
	// GlobalTransactions and LocalTransactions split the bus work by
	// level; the hierarchy's point is that intra-cluster sharing never
	// leaves its local bus.
	GlobalTransactions int64
	LocalTransactions  int64
	GlobalBusy         int64
	MaxLocalBusy       int64
	// Fetches and Absorbs summarise bridge work.
	GlobalFetches        int64
	Absorbs              int64
	ClusterInvalidations int64
}

// CollectStats snapshots the tree's counters.
func (s *System) CollectStats() Stats {
	var out Stats
	g := s.Global.Stats()
	out.GlobalTransactions = g.Transactions
	out.GlobalBusy = g.BusyNanos
	for _, cl := range s.Clusters {
		l := cl.Local.Stats()
		out.LocalTransactions += l.Transactions
		if l.BusyNanos > out.MaxLocalBusy {
			out.MaxLocalBusy = l.BusyNanos
		}
		bs := cl.Bridge.Stats()
		out.GlobalFetches += bs.GlobalFetches
		out.Absorbs += bs.Absorbs
		out.ClusterInvalidations += bs.ClusterInvalidations
	}
	return out
}

// Caches returns every processor cache in the tree (for aggregation).
func (s *System) Caches() []*cache.Cache {
	var out []*cache.Cache
	for _, cl := range s.Clusters {
		out = append(out, cl.Caches...)
	}
	return out
}
