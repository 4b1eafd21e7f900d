package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"masm/internal/proto"
)

// Operation classes a client times. Each has an end-to-end metric family.
const (
	classWrite = iota
	classGet
	classScan
	classTx
	numClasses
)

var classNames = [numClasses]string{"write", "get", "scan", "tx"}

// sliceLen is how long tracing stays on or off before the traced run flips
// it; units completed are counted per slice parity (see tracer).
const sliceLen = 250 * time.Millisecond

// samples is what one phase of one run records.
type samples struct {
	mu    sync.Mutex // transactions of one connection complete concurrently
	start time.Time
	lat   [numClasses][]int64 // ns per completed operation
	units [numClasses]int64   // completed: rows for a scan, else operations
	last  [numClasses]int64   // when the latest completed, ns after start

	attempts, refusals, failures int64
	stalls                       []interval // writes and transactions outstanding beyond 10 ms
	maxWrite                     int64
	sends, late                  int64    // open loop: transactions sent, and sent more than 1 ms late
	slices                       int      // whole slices in the phase
	sliceUnits                   [2]int64 // rows and operations completed in even and odd slices
}

const stallAfter = int64(10 * time.Millisecond)

func (s *samples) done(class int, start time.Time, ns int64, units int64) {
	s.mu.Lock()
	at := time.Since(s.start)
	s.lat[class] = append(s.lat[class], ns)
	s.units[class] += units
	s.last[class] = int64(at)
	if class == classWrite || class == classTx {
		if ns > stallAfter {
			from := int64(start.Sub(s.start))
			s.stalls = append(s.stalls, interval{from + stallAfter, from + ns})
		}
		if class == classWrite && ns > s.maxWrite {
			s.maxWrite = ns
		}
	}
	if i := int(at / sliceLen); i < s.slices {
		s.sliceUnits[i&1] += units
	}
	s.mu.Unlock()
}

func (s *samples) count(attempts, refusals, failures int64) {
	s.mu.Lock()
	s.attempts += attempts
	s.refusals += refusals
	s.failures += failures
	s.mu.Unlock()
}

// add takes another phase's attempts, refusals and failures into s.
func (s *samples) add(rec *samples) {
	s.attempts += rec.attempts
	s.refusals += rec.refusals
	s.failures += rec.failures
}

// rate is everything a phase completed of one class over the time from the
// phase's start to the class's last completion, so a stall lowers it by the
// share of the phase it took.
func (s *samples) rate(class int) float64 {
	return float64(s.units[class]) / time.Duration(s.last[class]).Seconds()
}

// violations collects correctness failures: any one makes the run incorrect.
type violations struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (v *violations) add(format string, args ...any) {
	v.n.Add(1)
	v.mu.Lock()
	if len(v.first) < 10 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// client is one connection and the generator state that drives it. Its
// methods are called from one goroutine, except tx.
type client struct {
	id      int
	c       *proto.Client
	m       *model
	g       *keygen
	tr      *tracer  // nil in the untraced run
	rec     *samples // nil while warming up
	bad     *violations
	written []uint64
	scratch [bodyLen]byte
}

func (cl *client) tracing() bool { return cl.tr != nil && cl.tr.on.Load() }

// finish records one completed client call.
func (cl *client) finish(class int, kind spanKind, start time.Time, units, verifyNs int64) {
	ns := int64(time.Since(start))
	if cl.rec != nil {
		cl.rec.done(class, start, ns, units)
	}
	if cl.tracing() {
		s := int64(start.Sub(cl.tr.epoch))
		cl.tr.addCall(kind, cl.id, s, s+ns, units, verifyNs)
	}
}

func (cl *client) failed(what string, err error) {
	if cl.rec != nil {
		cl.rec.count(0, 0, 1)
	}
	cl.bad.add("conn %d: %s: %v", cl.id, what, err)
}

// send issues one modelled write of (key, ver), retrying refusals.
func (cl *client) send(key uint64, kind opKind, ver uint64) (attempts int64, err error) {
	for {
		attempts++
		switch kind {
		case opPut:
			err = cl.c.Put(tableName, key, encodeBody(cl.scratch[:], key, ver))
		case opModify:
			err = cl.c.Modify(tableName, key, patchOff, encodeBody(cl.scratch[:], key, ver)[patchOff:patchOff+patchLen])
		default:
			err = cl.c.Delete(tableName, key)
		}
		// A refused write was not applied, so sending it again is safe;
		// its latency keeps running from the first attempt.
		if !proto.ErrBackpressure(err) || attempts > 50000 {
			return attempts, err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// write performs one durable single write on a key this client owns.
func (cl *client) write(key uint64, kind opKind) {
	ver := cl.m.begin(key)
	start := time.Now()
	attempts, err := cl.send(key, kind, ver)
	if cl.rec != nil {
		cl.rec.count(attempts, attempts-1, 0)
	}
	if err != nil {
		cl.failed("write", err) // the key stays pending: its state is unknown
		return
	}
	cl.m.ack(key, kind, ver)
	cl.written = append(cl.written, key)
	cl.finish(classWrite, kPut, start, 1, 0)
}

// get reads one key with the cheapest call the protocol has for it and
// checks the reply against the model.
func (cl *client) get(key uint64) {
	began := cl.m.now()
	start := time.Now()
	found := false
	err := cl.c.Scan(tableName, key, key, 1, func(k uint64, body []byte) bool {
		found = true
		if k != key {
			cl.bad.add("get %d returned key %d", key, k)
		} else if msg := cl.m.checkRow(k, body, true, began); msg != "" {
			cl.bad.add("get %d: %s", key, msg)
		}
		return true
	})
	if cl.rec != nil {
		cl.rec.count(1, 0, 0)
	}
	if err != nil {
		cl.failed("get", err)
		return
	}
	if !found {
		if msg := cl.m.checkRow(key, nil, false, began); msg != "" {
			cl.bad.add("get %d: %s", key, msg)
		}
	}
	cl.finish(classGet, kGet, start, 1, 0)
}

// scan reads [begin, end] and checks every row returned and every key
// skipped against the model. It returns the number of rows.
func (cl *client) scan(begin, end uint64) int64 {
	began := cl.m.now()
	start := time.Now()
	next := begin // first key not yet accounted for
	var rows, verifyNs int64
	timeIt := cl.tracing()
	err := cl.c.Scan(tableName, begin, end, 0, func(k uint64, body []byte) bool {
		// Timing every row's check would cost more than the check: time
		// one in 64 and scale.
		var t0 time.Time
		timed := timeIt && rows&63 == 0
		if timed {
			t0 = time.Now()
		}
		rows++
		if k < next || k > end {
			cl.bad.add("scan [%d,%d] returned key %d out of order or range", begin, end, k)
			return false
		}
		for ; next < k; next++ {
			if msg := cl.m.checkRow(next, nil, false, began); msg != "" {
				cl.bad.add("scan [%d,%d] key %d: %s", begin, end, next, msg)
			}
		}
		next = k + 1
		if msg := cl.m.checkRow(k, body, true, began); msg != "" {
			cl.bad.add("scan [%d,%d] key %d: %s", begin, end, k, msg)
		}
		if timed {
			verifyNs += 64 * int64(time.Since(t0))
		}
		return true
	})
	if cl.rec != nil {
		cl.rec.count(1, 0, 0)
	}
	if err != nil {
		cl.failed("scan", err)
		return rows
	}
	for ; next <= end && next < uint64(len(cl.m.state)); next++ {
		if msg := cl.m.checkRow(next, nil, false, began); msg != "" {
			cl.bad.add("scan [%d,%d] key %d: %s", begin, end, next, msg)
		}
	}
	cl.finish(classScan, kScan, start, rows, verifyNs)
	return rows
}

// tx runs one wire transaction that puts keys, timed from due. It may run
// concurrently with other transactions of the same client, so it touches
// no generator state.
func (cl *client) tx(due time.Time, keys []uint64) {
	var scratch [bodyLen]byte
	vers := make([]uint64, len(keys))
	txid, err := cl.c.BeginTx()
	for i := 0; i < len(keys) && err == nil; i++ {
		vers[i] = cl.m.begin(keys[i])
		err = cl.c.TxPut(txid, tableName, keys[i], encodeBody(scratch[:], keys[i], vers[i]))
	}
	if err == nil {
		err = cl.c.Commit(txid)
	}
	if cl.rec != nil {
		cl.rec.count(1, 0, 0)
	}
	if err != nil {
		cl.failed("transaction", err)
		return
	}
	for i, k := range keys {
		cl.m.ack(k, opPut, vers[i])
	}
	cl.finish(classTx, kTx, due, 1, 0)
}

// scanRange draws a span-key range inside the keyspace.
func (cl *client) scanRange(span uint64) (begin, end uint64) {
	begin = 2 + cl.g.rng.Uint64()%(2*cl.g.rows-span)
	return begin, begin + span - 1
}

// readKey draws a point-read target: a hot preloaded key, or one time in
// ten the odd key after it, which exists only if set-up happened to insert
// it.
func (cl *client) readKey() uint64 {
	key := cl.g.hot()
	if cl.g.rng.Intn(10) == 0 {
		key++
	}
	return key
}

// The four traffic loops. Each runs until deadline.

func (cl *client) ingestLoop(deadline time.Time) {
	for time.Now().Before(deadline) {
		cl.write(own(cl.g.uniform(), cl.id), cl.g.mixKind())
	}
}

func (cl *client) scanLoop(deadline time.Time, span uint64, think time.Duration) {
	for time.Now().Before(deadline) {
		cl.scan(cl.scanRange(span))
		time.Sleep(think)
	}
}

func (cl *client) pointReadLoop(deadline time.Time) {
	for time.Now().Before(deadline) {
		if cl.g.rng.Intn(20) == 0 {
			cl.write(own(cl.g.hot(), cl.id), opPut)
		} else {
			cl.get(cl.readKey())
		}
	}
}

// mixedThink is how long the scanning connection of mixed waits between
// scans. A migration can only begin at an instant when no older scan is
// open, and transactions are not held back while it waits: with scans back
// to back the migration started seconds late or not at all, the cache
// overflowed, and a run either had its migration stall or did not. Two
// milliseconds let it begin when it is due.
const mixedThink = 2 * time.Millisecond

// Open-loop transaction stream: txRate transactions of txSize puts per
// second, each sent when it is due whether or not earlier ones have
// finished (they queue in the connection, which the server reads in order).
const (
	txRate     = 40
	txSize     = 100
	txInFlight = 64 // beyond this many unfinished transactions the generator waits, and counts as late
)

// txKeys draws the keys of one transaction. They are noted as written
// whether or not the transaction succeeds: a failed one leaves its keys
// pending, which the final check skips.
func (cl *client) txKeys() []uint64 {
	keys := make([]uint64, txSize)
	for i := range keys {
		keys[i] = cl.g.distinct(cl.id)
	}
	cl.written = append(cl.written, keys...)
	return keys
}

func (cl *client) txLoop(start, deadline time.Time) {
	var wg sync.WaitGroup
	slots := make(chan struct{}, txInFlight)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / txRate)
		if !due.Before(deadline) {
			break
		}
		// A timer fires up to a few milliseconds late when both cores are
		// busy: sleep to a millisecond short of due, then spin until it.
		time.Sleep(time.Until(due) - time.Millisecond)
		for time.Now().Before(due) {
		}
		slots <- struct{}{}
		keys := cl.txKeys()
		if rec := cl.rec; rec != nil {
			rec.mu.Lock()
			rec.sends++
			if time.Since(due) > time.Millisecond {
				rec.late++
			}
			rec.mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.tx(due, keys)
			<-slots
		}()
	}
	wg.Wait()
}
