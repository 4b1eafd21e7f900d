package masm

import (
	"fmt"
	"sync"

	"masm/internal/runfile"
	"masm/internal/sim"
	"masm/internal/table"
	"masm/internal/update"
)

// rowFold applies one key's update group, oldest first, onto its base
// row: the one definition of that step, shared by the range scan's
// Merge_data_updates (Query.Each, once per update group; rows with no
// update go from their page to the consumer without it) and the point
// lookup. It allocates nothing: an insert or replace folds to its payload
// (payloads are never overwritten: run-scan bytes and the buffer copy's
// records alike), and a modify patches the fold's scratch body.
type rowFold struct {
	body   []byte
	exists bool
	ts     int64 // newest applied update's timestamp (the page's if none)
	// based marks a fold that started from a row read off a page stamped
	// pageTS: updates at or below the stamp were absorbed by the migration
	// that wrote the page and are skipped (timestamp check, §3.2). An
	// update group with no base row applies whole — a new insertion, or a
	// delete/modify of a nonexistent key, which yields nothing.
	based  bool
	pageTS int64
	// scratch is the fold's own body buffer, reused by every fold of one
	// query or lookup; owned reports that body lives in it, so a further
	// modify patches it in place.
	scratch []byte
	owned   bool
}

// reset starts a fold with no base row, keeping the scratch buffer.
func (f *rowFold) reset() { *f = rowFold{scratch: f.scratch} }

// onto starts a fold on a row read off a page.
func (f *rowFold) onto(row table.Row) {
	*f = rowFold{body: row.Body, exists: true, ts: row.PageTS, based: true, pageTS: row.PageTS, scratch: f.scratch}
}

// apply folds u, the next update of the key, as update.Apply would.
func (f *rowFold) apply(u *update.Record) {
	if f.based && u.TS <= f.pageTS {
		return
	}
	f.ts = u.TS
	switch u.Op {
	case update.Insert, update.Replace:
		f.body, f.exists, f.owned = u.Payload, true, false
	case update.Delete:
		f.body, f.exists, f.owned = nil, false, false
	case update.Modify:
		if !f.exists {
			return
		}
		if !f.owned {
			f.scratch = append(f.scratch[:0], f.body...)
			f.body, f.owned = f.scratch, true
		}
		update.PatchFields(f.body, u.Payload)
	default:
		panic(fmt.Sprintf("masm: fold of unknown op %v", u.Op))
	}
}

// getScratch is the reusable state of one point lookup.
type getScratch struct {
	runs []*runfile.Run // pinned runs whose filter admits the key
	mem  []update.Record
	pb   runfile.PointBuf
	page []byte // the main-data page image the row is read from
	fold rowFold
}

var getScratchPool = sync.Pool{New: func() any { return new(getScratch) }}

// release drops what the lookup collected (so the pool pins no payloads)
// and returns the scratch for reuse.
func (sc *getScratch) release() {
	clear(sc.runs)
	clear(sc.mem)
	sc.runs, sc.mem = sc.runs[:0], sc.mem[:0]
	sc.pb.Reset()
	sc.fold.reset()
	getScratchPool.Put(sc)
}

// Get is the point lookup: the row stored under key as of a fresh
// timestamp, with found=false if no such row exists, and the completion
// time of its reads. It returns exactly what NewQuery(at, key, key) would,
// by the shortest path: probe the memtable, read the ≤ 2-granule window
// of each run whose key filter admits the key, read the one main-data
// page, and fold the updates onto the row. Unlike a range scan's setup it
// sorts, flushes and merges nothing. The SSD probes and the disk page are
// all issued at at — they overlap, as a scan's children do — so the
// completion time is the latest of them. The returned body is the
// caller's.
func (s *Store) Get(at sim.Time, key uint64) (row table.Row, found bool, end sim.Time, err error) {
	sc := getScratchPool.Get().(*getScratch)
	hash := runfile.KeyHash(key)

	// One latch hold stamps the timestamp, registers the lookup as a
	// reader — migration and §3.5 combining respect it like a query's —
	// pins the runs worth reading and probes the memtable. The probe must
	// share the hold with the run-set capture: a flush in between would
	// move records from the buffer into a run this lookup never pinned.
	s.mu.Lock()
	qts := s.oracle.Next()
	s.addReaderLocked(qts)
	for _, r := range s.runs {
		if r.Admits(key, hash, qts) {
			s.pins[r.ID]++
			sc.runs = append(sc.runs, r)
		}
	}
	filtered := len(s.runs) - len(sc.runs)
	sc.mem = s.buf.AppendKey(sc.mem, key, qts)
	gran := s.cfg.ScanGranularity
	s.mu.Unlock()

	row, found, end, err = s.readKey(at, key, qts, gran, sc)

	s.mu.Lock()
	s.dropReaderLocked(qts)
	for _, r := range sc.runs {
		s.unpinRunLocked(r.ID)
	}
	s.mu.Unlock()
	s.m.Gets.Inc()
	s.m.GetRunsProbed.Add(int64(len(sc.runs)))
	s.m.GetRunsFiltered.Add(int64(filtered))
	sc.release()
	return row, found, end, err
}

// readKey is the unlatched half of a lookup: the run probes, the page
// read and the fold.
func (s *Store) readKey(at sim.Time, key uint64, qts int64, gran int, sc *getScratch) (table.Row, bool, sim.Time, error) {
	end := at
	for _, r := range sc.runs {
		t, err := r.Lookup(at, key, qts, gran, &sc.pb)
		if err != nil {
			return table.Row{}, false, at, err
		}
		end = sim.MaxTime(end, t)
	}
	base, onPage, t, err := s.tbl.Lookup(at, key, &sc.page)
	if err != nil {
		return table.Row{}, false, at, err
	}
	end = sim.MaxTime(end, t)

	// Runs first, then the buffer — the merge's source order — and a
	// stable sort by timestamp gives the order Merge_updates would deliver.
	recs := append(sc.pb.Recs, sc.mem...)
	sc.pb.Recs = recs
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].TS < recs[j-1].TS; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	fold := &sc.fold
	if onPage {
		fold.onto(base)
	} else {
		fold.reset()
	}
	for i := range recs {
		fold.apply(&recs[i])
	}
	if !fold.exists {
		return table.Row{}, false, end, nil
	}
	// The folded body aliases the page image, an update's payload or the
	// scratch; the caller keeps what Get returns, so it gets a copy.
	return table.Row{Key: key, Body: append([]byte(nil), fold.body...), PageTS: fold.ts}, true, end, nil
}
