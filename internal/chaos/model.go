package chaos

import (
	"bytes"
	"fmt"
	"sort"

	"masm"
)

// model is the in-memory oracle the engine is checked against. It tracks,
// per table slot:
//
//   - rows: the expected current state — every acknowledged operation
//     applied in order. Live scans, gets and snapshot reads are compared
//     against it (snapshots against a copy taken at open).
//   - ghosts: keys whose engine-side state is uncertain because an
//     operation on them FAILED after it may have reached the redo log (a
//     failed insert whose WAL record was already appended, a cross-table
//     commit that failed mid-publication). The engine's documented
//     contract for those is "not applied now, possibly applied after
//     recovery" — so the oracle excludes exactly those keys from
//     comparison until the next reopen re-synchronizes them, and checks
//     everything else strictly.
//
// and globally:
//
//   - base: the durable baseline — the state every table had at the last
//     (re)open, which recovery checkpointed and made fully durable.
//   - journal: every acknowledged update since base, in ack order (the
//     redo-log order). After a crash, the surviving state must equal base
//     plus some PREFIX of the journal — the committed-prefix contract:
//     the WAL replays in order and truncates at its torn tail, so any
//     other shape (a hole, a reordering, a value no one wrote) is a
//     durability bug. The writes of one committed transaction share a
//     commit-group id, and the prefix may not end inside a group: a
//     commit is one redo frame whatever its arity, so it survives a crash
//     whole or not at all, synced or not.
//   - floor: the journal length at the last successful Sync. A matching
//     prefix shorter than the floor means acknowledged-durable data was
//     lost — the loudest possible oracle failure.
//
// Catalog changes (create/drop) are durable at the moment they return —
// the manifest is written synchronously with tmp+rename+fsync — so they
// move base directly and never enter the journal.
type model struct {
	tables  map[int]*tableModel
	journal []jop
	floor   int
	groups  int // commit-group ids issued so far
}

// tableModel is one slot's expected state.
type tableModel struct {
	name   string
	id     uint32
	rows   map[uint64][]byte
	base   map[uint64][]byte
	ghosts map[uint64]bool
}

// jop is one acknowledged update in redo order. val == nil means delete;
// group is the id of the transaction commit that published it (0 for a
// standalone write).
type jop struct {
	slot  int
	key   uint64
	val   []byte
	group int
}

// applyTo folds the update into one table's rows.
func (j jop) applyTo(rows map[uint64][]byte) {
	if j.val == nil {
		delete(rows, j.key)
	} else {
		rows[j.key] = j.val
	}
}

func newModel() *model {
	return &model{tables: make(map[int]*tableModel)}
}

// slotOrder returns the live table slots in ascending order, for callers
// whose iteration order is observable (disk-request order, first-failure
// selection) and must therefore not depend on map iteration.
func (m *model) slotOrder() []int {
	slots := make([]int, 0, len(m.tables))
	for slot := range m.tables {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

func copyRows(m map[uint64][]byte) map[uint64][]byte {
	c := make(map[uint64][]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// createTable registers a freshly created (and durably manifested) table.
func (m *model) createTable(slot int, name string, id uint32, rows map[uint64][]byte) {
	m.tables[slot] = &tableModel{
		name:   name,
		id:     id,
		rows:   copyRows(rows),
		base:   copyRows(rows),
		ghosts: make(map[uint64]bool),
	}
}

// dropTable unregisters a dropped table and prunes its journal entries —
// the drop is durable, so nothing of it may resurface after any crash.
func (m *model) dropTable(slot int) {
	delete(m.tables, slot)
	kept := m.journal[:0]
	fl := 0
	for i, j := range m.journal {
		if j.slot == slot {
			if i < m.floor {
				// Floor entries of other tables keep their must-survive
				// status; the dropped table's are simply gone.
				continue
			}
			continue
		}
		kept = append(kept, j)
		if i < m.floor {
			fl = len(kept)
		}
	}
	m.journal = kept
	m.floor = fl
}

// ack records one acknowledged standalone update: applied to rows and
// appended to the journal.
func (m *model) ack(slot int, key uint64, val []byte) {
	m.record(jop{slot: slot, key: key, val: val})
}

// ackCommit records one acknowledged transaction commit: its writes, in
// publication order, under one fresh commit-group id.
func (m *model) ackCommit(writes []jop) {
	m.groups++
	for _, w := range writes {
		w.group = m.groups
		m.record(w)
	}
}

func (m *model) record(j jop) {
	j.applyTo(m.tables[j.slot].rows)
	m.journal = append(m.journal, j)
}

// ghost marks a key's engine state as unknown until the next reopen.
func (m *model) ghost(slot int, key uint64) {
	if t, ok := m.tables[slot]; ok {
		t.ghosts[key] = true
	}
}

// synced records a successful explicit Sync: everything acked so far must
// survive any later crash.
func (m *model) synced() { m.floor = len(m.journal) }

// checkScan compares a live scan's output over [begin, end] of slot with
// the model, skipping ghost keys on both sides.
func (m *model) checkScan(slot int, begin, end uint64, got []kv) error {
	t := m.tables[slot]
	return diffStates(subRange(t.rows, begin, end), got, t.ghosts, fmt.Sprintf("table %q scan [%d,%d]", t.name, begin, end))
}

// checkQuery compares a predicated, projected query's output with the
// model: the model rows are filtered by the spec's key ranges and
// projected exactly the way the engine projects, then diffed like a
// scan (ghost keys skipped on both sides).
func (m *model) checkQuery(slot int, spec masm.QuerySpec, got []kv) error {
	t := m.tables[slot]
	want := make(map[uint64][]byte)
	for k, v := range t.rows {
		if k < spec.Begin || k > spec.End {
			continue
		}
		match := len(spec.KeyRanges) == 0
		for _, r := range spec.KeyRanges {
			if k >= r.Lo && k <= r.Hi {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if p := spec.Project; p != nil {
			if p.Off+p.Width <= len(v) {
				v = v[p.Off : p.Off+p.Width]
			} else {
				v = nil
			}
		}
		want[k] = v
	}
	return diffStates(want, got, t.ghosts,
		fmt.Sprintf("table %q query [%d,%d] (%d ranges, project %v)",
			t.name, spec.Begin, spec.End, len(spec.KeyRanges), spec.Project != nil))
}

// kv is one scanned row.
type kv struct {
	k uint64
	v []byte
}

func subRange(rows map[uint64][]byte, begin, end uint64) map[uint64][]byte {
	out := make(map[uint64][]byte)
	for k, v := range rows {
		if k >= begin && k <= end {
			out[k] = v
		}
	}
	return out
}

// diffStates compares want (model) against got (engine scan output, key
// ordered), ignoring keys in ghosts.
func diffStates(want map[uint64][]byte, got []kv, ghosts map[uint64]bool, what string) error {
	var prev uint64
	seen := make(map[uint64]bool, len(got))
	for i, e := range got {
		if i > 0 && e.k <= prev {
			return fmt.Errorf("%s: keys not strictly increasing: %d after %d", what, e.k, prev)
		}
		prev = e.k
		seen[e.k] = true
		if ghosts[e.k] {
			continue
		}
		w, ok := want[e.k]
		if !ok {
			return fmt.Errorf("%s: engine returned key %d the model does not hold", what, e.k)
		}
		if !bytes.Equal(w, e.v) {
			return fmt.Errorf("%s: key %d: engine %q, model %q", what, e.k, e.v, w)
		}
	}
	for k := range want {
		if !seen[k] && !ghosts[k] {
			return fmt.Errorf("%s: model key %d missing from engine", what, k)
		}
	}
	return nil
}

// adoptReopen verifies a CLEAN reopen (nothing may be lost: shutdown
// synced everything) and resets the durability baseline. got maps slot →
// full-scan state. Ghost keys are adopted from the engine and cleared —
// the reopen replayed the log, so their fate is now decided.
func (m *model) adoptReopen(got map[int][]kv) error {
	if err := m.checkTableSets(got); err != nil {
		return err
	}
	for slot, t := range m.tables {
		if err := diffStates(t.rows, got[slot], t.ghosts, fmt.Sprintf("table %q after clean reopen", t.name)); err != nil {
			return err
		}
	}
	m.adopt(got)
	return nil
}

// adoptCrash runs the committed-prefix durability check after a crash and
// reopen, then resets the baseline to the surviving state. The surviving
// state of every table must equal base plus one common prefix of the
// journal (ghost keys excluded) that covers the floor and splits no commit
// group.
func (m *model) adoptCrash(got map[int][]kv) error {
	if err := m.checkTableSets(got); err != nil {
		return err
	}
	// Current reconstruction state: base copies.
	cur := make(map[int]map[uint64][]byte, len(m.tables))
	gotMap := make(map[int]map[uint64][]byte, len(got))
	for slot, t := range m.tables {
		cur[slot] = copyRows(t.base)
		g := make(map[uint64][]byte, len(got[slot]))
		var prev uint64
		for i, e := range got[slot] {
			if i > 0 && e.k <= prev {
				return fmt.Errorf("table %q after crash: keys not strictly increasing: %d after %d", t.name, e.k, prev)
			}
			prev = e.k
			g[e.k] = e.v
		}
		gotMap[slot] = g
	}
	// Incremental diff count between cur and gotMap over non-ghost keys.
	mismatch := make(map[int]map[uint64]bool, len(m.tables))
	diff := 0
	recheck := func(slot int, key uint64) {
		if m.tables[slot].ghosts[key] {
			return
		}
		gv, gok := gotMap[slot][key]
		cv, cok := cur[slot][key]
		bad := gok != cok || (gok && !bytes.Equal(gv, cv))
		if bad && !mismatch[slot][key] {
			mismatch[slot][key] = true
			diff++
		} else if !bad && mismatch[slot][key] {
			delete(mismatch[slot], key)
			diff--
		}
	}
	for slot, t := range m.tables {
		mismatch[slot] = make(map[uint64]bool)
		for k := range t.base {
			recheck(slot, k)
		}
		for k := range gotMap[slot] {
			if _, ok := cur[slot][k]; !ok {
				recheck(slot, k)
			}
		}
	}
	// Walk the prefixes. The state can match several (a write that changes
	// nothing, a ghost key); the first that covers the floor and ends on a
	// commit-group boundary satisfies the contract. short and split remember
	// a match that did not, for the error.
	short, split := -1, -1
	bestDiff, bestP := diff, 0
	for p := 0; ; p++ {
		if p > 0 {
			j := m.journal[p-1]
			if rows, live := cur[j.slot]; live {
				j.applyTo(rows)
				recheck(j.slot, j.key)
			}
		}
		if diff == 0 {
			switch {
			case p > 0 && p < len(m.journal) && m.journal[p-1].group != 0 && m.journal[p-1].group == m.journal[p].group:
				split = p
			case p < m.floor:
				short = p
			default:
				m.adopt(got)
				return nil
			}
		}
		if diff < bestDiff {
			bestDiff, bestP = diff, p
		}
		if p == len(m.journal) {
			break
		}
	}
	switch {
	case short >= 0:
		return fmt.Errorf("durability: committed updates lost — surviving state matches only prefix %d of the journal, but %d updates were acknowledged durable (floor)",
			short, m.floor)
	case split >= 0:
		return fmt.Errorf("durability: committed transaction torn — surviving state matches only prefix %d of the journal, which splits commit group %d",
			split, m.journal[split].group)
	}
	if debugIO {
		// Re-walk to bestP and dump the mismatches.
		cur := make(map[int]map[uint64][]byte, len(m.tables))
		for slot, t := range m.tables {
			cur[slot] = copyRows(t.base)
		}
		for _, j := range m.journal[:bestP] {
			if rows, live := cur[j.slot]; live {
				j.applyTo(rows)
			}
		}
		for slot, t := range m.tables {
			for k, v := range cur[slot] {
				gv, ok := gotMap[slot][k]
				if t.ghosts[k] {
					continue
				}
				if !ok {
					fmt.Printf("DBG slot %d key %d: model %q, engine MISSING\n", slot, k, v)
				} else if !bytes.Equal(gv, v) {
					fmt.Printf("DBG slot %d key %d: model %q, engine %q\n", slot, k, v, gv)
				}
			}
			for k, gv := range gotMap[slot] {
				if _, ok := cur[slot][k]; !ok && !t.ghosts[k] {
					fmt.Printf("DBG slot %d key %d: model MISSING, engine %q\n", slot, k, gv)
				}
			}
		}
	}
	return fmt.Errorf("durability: post-crash state matches NO prefix of the %d acked updates (best: %d keys off at prefix %d)",
		len(m.journal), bestDiff, bestP)
}

// checkTableSets verifies the surviving catalog matches the model's —
// catalog changes are synchronously durable, so they must never be lost
// or resurrected.
func (m *model) checkTableSets(got map[int][]kv) error {
	for slot, t := range m.tables {
		if _, ok := got[slot]; !ok {
			return fmt.Errorf("catalog: table %q (slot %d) lost across restart", t.name, slot)
		}
	}
	for slot := range got {
		if _, ok := m.tables[slot]; !ok {
			return fmt.Errorf("catalog: slot %d resurrected a dropped/unknown table", slot)
		}
	}
	return nil
}

// adopt resets the durability baseline to the observed state: rows and
// base become what the engine now holds, ghosts clear, journal empties.
func (m *model) adopt(got map[int][]kv) {
	for slot, t := range m.tables {
		rows := make(map[uint64][]byte, len(got[slot]))
		for _, e := range got[slot] {
			rows[e.k] = e.v
		}
		t.rows = rows
		t.base = copyRows(rows)
		t.ghosts = make(map[uint64]bool)
	}
	m.journal = nil
	m.floor = 0
}
