package cache

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// This file is the bus side of the cache: participation in every
// broadcast address cycle (§2.1 — "the cache must check the address for
// a hit in its directory before allowing the address cycle to
// complete"). Query locks the shard guarding the snooped line and
// leaves it locked; Commit or Cancel unlocks it, mirroring the
// directory hold of a real address handshake (see the bus.Snooper
// contract). Sweeps on different fabric shards lock different
// cacheShards, so they proceed concurrently without ever contending.

var _ bus.Aborter = (*Cache)(nil)

// SnooperID implements bus.Snooper.
func (c *Cache) SnooperID() int { return c.id }

// Query implements bus.Snooper: consult the directory and the policy
// for the snooped transaction, leaving the line's shard lock held until
// Commit/Cancel.
func (c *Cache) Query(tx *bus.Transaction) bus.SnoopResponse {
	c.shard(tx.Addr).mu.Lock() // released by Commit or Cancel
	l := c.lookup(tx.Addr)
	if l == nil {
		// Not in the directory: Invalid row of Table 2, all columns I.
		return bus.SnoopResponse{}
	}
	if tx.Cmd == bus.CmdClean {
		return c.queryClean(l)
	}
	event := tx.Event()
	var action core.SnoopAction
	var ok bool
	policy := c.policyFor(tx.Addr)
	if ra, isRA := policy.(core.RecencyAware); isRA {
		// §5.2 refinement: tell the policy whether this line is
		// recently used within its set, so it can choose between
		// updating and discarding on a broadcast write.
		action, ok = ra.ChooseSnoopRecency(l.state, event, c.recentlyUsed(l))
	} else {
		action, ok = policy.ChooseSnoop(l.state, event)
	}
	if !ok {
		// A "—" cell: the paper marks these "not a legal case. error
		// condition" — reaching one means a protocol (or protocol mix)
		// violated the class, so the transaction fails with it.
		return bus.SnoopResponse{State: l.state, Hit: true, Err: fmt.Errorf(
			"cache %d (%s): illegal bus event col %d (%s) in state %s for %s",
			c.id, policy.Name(), event.Column(), event, l.state, tx)}
	}
	resp := bus.SnoopResponse{Action: action, State: l.state, Hit: true}
	if action.AssertDI {
		resp.Line = append([]byte(nil), l.data...)
	}
	return resp
}

// queryClean answers a CmdClean command cycle (§6 extension): an owner
// aborts, pushes the line, and keeps an unowned shareable copy; any
// other holder simply keeps its copy (it already matches the owner, and
// will match memory once the owner has pushed). Callers hold the
// line's shard lock.
func (c *Cache) queryClean(l *line) bus.SnoopResponse {
	if l.state.OwnedCopy() {
		return bus.SnoopResponse{
			Action: core.SnoopAction{
				Abort: &core.Recovery{Next: core.Shared, Assert: core.SigCA},
			},
			State: l.state,
			Hit:   true,
		}
	}
	return bus.SnoopResponse{
		Action: core.SnoopAction{Next: core.Uncond(l.state), AssertCH: true},
		State:  l.state,
		Hit:    true,
	}
}

// Commit implements bus.Snooper: apply the action chosen in Query and
// release the directory.
func (c *Cache) Commit(tx *bus.Transaction, resp bus.SnoopResponse, otherCH bool) {
	sh := c.shard(tx.Addr)
	defer sh.mu.Unlock()
	if !resp.Hit {
		return
	}
	l := c.lookup(tx.Addr)
	if l == nil {
		panic(fmt.Sprintf("cache %d: line %#x vanished during snoop", c.id, uint64(tx.Addr)))
	}
	action := resp.Action
	sh.stats.SnoopHits++
	c.snoopEpoch.Add(1)
	from := l.state
	dataChanged := false

	// Data movement first: capture (DI on a write) or update (SL).
	if tx.Op == core.BusWrite && (action.AssertDI || action.AssertSL) {
		dataChanged = true
		if tx.Partial != nil {
			putWord(l.data, tx.Partial.Word, tx.Partial.Val)
		} else {
			copy(l.data, tx.Data)
		}
		if action.AssertDI {
			sh.stats.WritesCaptured++
			c.emitSnoop(obs.KindCapture, tx)
		} else {
			sh.stats.UpdatesReceived++
			c.emitSnoop(obs.KindUpdate, tx)
		}
	}
	if tx.Op == core.BusRead && action.AssertDI {
		sh.stats.InterventionsSupplied++
		c.emitSnoop(obs.KindIntervene, tx)
	}

	next := action.Next.Resolve(otherCH)
	if !next.Valid() {
		next = core.Invalid
		sh.stats.InvalidationsReceived++
	}
	c.setStateTx(sh, l, next, snoopCause(tx), tx.TxID())
	if c.cfg.OnSnoopChange != nil && (from != next || dataChanged) {
		c.cfg.OnSnoopChange(tx.Addr, from, next, dataChanged)
	}
}

// Cancel implements bus.Snooper: the transaction was aborted by BS;
// release the directory without applying anything.
func (c *Cache) Cancel(tx *bus.Transaction, resp bus.SnoopResponse) {
	c.shard(tx.Addr).mu.Unlock()
}

// Recover implements bus.Aborter: after this cache asserted BS, push
// the owned line to memory and enter the recovery state, so that the
// aborted master's retry finds memory up to date (§4.3–4.5). The bus
// shard is held by the aborted transaction; the line's shard lock is
// held across the push — the nested push cannot snoop this slice of
// the cache (it masters it, and the push targets the same shard) and
// cannot itself be aborted (no other owner of the line can exist).
func (c *Cache) Recover(b *bus.Bus, aborted *bus.Transaction, resp bus.SnoopResponse) error {
	rec := resp.Action.Abort
	if rec == nil {
		return fmt.Errorf("cache %d: Recover called without an abort action", c.id)
	}
	sh := c.shard(aborted.Addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l := c.lookup(aborted.Addr)
	if l == nil || !l.state.OwnedCopy() {
		return fmt.Errorf("cache %d: BS recovery for %#x but line is not owned", c.id, uint64(aborted.Addr))
	}
	sh.stats.AbortsIssued++
	res, err := b.ExecuteHeld(sh.recovery.load(bus.Transaction{
		MasterID: c.id,
		Signals:  rec.Assert,
		Addr:     aborted.Addr,
		Op:       core.BusWrite,
		Data:     sh.recovery.line(l.data),
	}))
	if err != nil {
		return err
	}
	c.noteStall(aborted.Addr, res.StallCost())
	c.setStateTx(sh, l, rec.Next, "bs-recovery", res.TxID)
	c.snoopEpoch.Add(1)
	return nil
}

// emitSnoop emits an instant event for a data movement this cache
// performed as a snooper (intervention supplied, update received, write
// captured). Callers hold the line's shard lock.
func (c *Cache) emitSnoop(kind obs.Kind, tx *bus.Transaction) {
	if rec := c.obs; rec != nil {
		rec.Emit(obs.Event{TS: rec.Clock(), Kind: kind, Bus: c.bus.SegmentID(tx.Addr), Proc: c.id, Addr: uint64(tx.Addr), TxID: tx.TxID()})
	}
}
