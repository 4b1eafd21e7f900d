package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"masm/internal/obs"
	"masm/internal/storage"
)

// Span kinds. The name is layer.operation; the layer is what self time is
// reported under.
type spanKind uint8

const (
	kPut spanKind = iota
	kGet
	kScan
	kTx
	kVerify // the client's own row checking inside a get or scan
	kWalRead
	kWalWrite
	kWalSync
	kRunsRead
	kRunsWrite
	kRunsSync
	kDataRead
	kDataWrite
	kDataSync
	kFlush
	kMerge
	kMigration
	kRecovery
	kProbe
	numKinds
)

var kindNames = [numKinds]string{
	"client.put", "client.get", "client.scan", "client.tx", "client.verify",
	"storage.wal.log.read", "storage.wal.log.write", "storage.wal.log.sync",
	"storage.cache.runs.read", "storage.cache.runs.write", "storage.cache.runs.sync",
	"storage.main.data.read", "storage.main.data.write", "storage.main.data.sync",
	"engine.flush", "engine.merge", "engine.migration", "engine.recovery",
	"probe",
}

func (k spanKind) isClientCall() bool { return k <= kTx }

type span struct {
	kind       spanKind
	conn       int8 // client spans: the connection; others: -1
	start, end int64
	parent     int32 // index+1 into the span list, 0 = none
	units      int32 // client calls: rows for a scan, else 1
}

// The three files of a database directory, as the storage layer names them.
const (
	fileWal = iota
	fileRuns
	fileData
	numFiles
)

var fileNames = [numFiles]string{"wal.log", "cache.runs", "main.data"}

// fileCounts are always on: they cost one atomic add and feed the ratios.
type fileCounts struct {
	reads, readBytes, writeBytes, syncs atomic.Int64
}

// tracer collects the traced run's spans and counts. Counts are always
// taken; spans and the clock reads they need only while on is set, so the
// run can alternate traced and untraced slices and compare their
// throughput (trace.overhead_frac).
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	files [numFiles]fileCounts

	// runsWriteStart is when cache.runs was first written since the last
	// flush or merge ended: those events carry no begin, and a flush is
	// the run write that precedes its end event.
	runsWriteStart atomic.Int64

	mu       sync.Mutex
	spans    []span
	migBegin int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(kind spanKind, conn int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, conn: int8(conn), start: start, end: end})
	t.mu.Unlock()
}

// addCall records a client call and, inside it, the time the client spent
// checking rows. That time was sampled across the call, not contiguous; it
// is placed at the call's end.
func (t *tracer) addCall(kind spanKind, conn int, start, end, units, verifyNs int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, conn: int8(conn), start: start, end: end, units: int32(units)})
	if verifyNs > 0 {
		t.spans = append(t.spans, span{kind: kVerify, conn: int8(conn), start: max(start, end-verifyNs), end: end,
			parent: int32(len(t.spans))})
	}
	t.mu.Unlock()
}

// wrap is the EngineDirOptions.WrapBackend hook.
func (t *tracer) wrap(name string, be storage.Backend) storage.Backend {
	for f, n := range fileNames {
		// wal.log.new is the checkpoint log recovery renames over wal.log.
		if name == n || f == fileWal && name == "wal.log.new" {
			return &timedBackend{Backend: be, t: t, c: &t.files[f], read: kWalRead + spanKind(3*f)}
		}
	}
	return be
}

type timedBackend struct {
	storage.Backend
	t    *tracer
	c    *fileCounts
	read spanKind // read, write, sync kinds are consecutive
}

func (b *timedBackend) ReadAt(p []byte, off int64) error {
	b.c.reads.Add(1)
	b.c.readBytes.Add(int64(len(p)))
	if !b.t.on.Load() {
		return b.Backend.ReadAt(p, off)
	}
	start := b.t.now()
	err := b.Backend.ReadAt(p, off)
	b.t.add(b.read, -1, start, b.t.now())
	return err
}

func (b *timedBackend) WriteAt(p []byte, off int64) error {
	b.c.writeBytes.Add(int64(len(p)))
	if b.read == kRunsRead {
		b.t.runsWriteStart.CompareAndSwap(0, b.t.now())
	}
	if !b.t.on.Load() {
		return b.Backend.WriteAt(p, off)
	}
	start := b.t.now()
	err := b.Backend.WriteAt(p, off)
	b.t.add(b.read+1, -1, start, b.t.now())
	return err
}

func (b *timedBackend) Sync() error {
	b.c.syncs.Add(1)
	if !b.t.on.Load() {
		return b.Backend.Sync()
	}
	start := b.t.now()
	err := b.Backend.Sync()
	b.t.add(b.read+2, -1, start, b.t.now())
	return err
}

// Emit is the Engine.SetTraceSink hook. Lifecycle spans are few, so they
// are kept whether or not the current slice is traced.
func (t *tracer) Emit(e obs.Event) {
	now := t.now()
	switch {
	case e.Op == "migration" && e.Phase == "begin":
		t.mu.Lock()
		t.migBegin = now
		t.mu.Unlock()
	case e.Op == "migration" && e.Phase == "end":
		t.mu.Lock()
		begin := t.migBegin
		t.mu.Unlock()
		t.add(kMigration, -1, begin, now)
	case e.Op == "flush" || e.Op == "merge":
		if start := t.runsWriteStart.Swap(0); start != 0 {
			kind := kFlush
			if e.Op == "merge" {
				kind = kMerge
			}
			t.add(kind, -1, start, now)
		}
	}
}

// interval is a half-open stretch of the run's clock.
type interval struct{ start, end int64 }

// union sorts and merges intervals into a disjoint list.
func union(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	out := in[:0]
	for _, iv := range in {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlapping returns the part of the disjoint sorted list that can overlap
// [start, end).
func overlapping(list []interval, start, end int64) []interval {
	i := sort.Search(len(list), func(i int) bool { return list[i].end > start })
	j := i
	for j < len(list) && list[j].start < end {
		j++
	}
	return list[i:j]
}

// selfTimes splits the time the clients observed — the sum of their call
// spans — among the kinds of span that were running inside each call, and
// returns nanoseconds per kind. Each instant of a call goes to one kind: the
// first in order that has a span active at that instant. What no span
// covers stays with the call's own kind: that is the time spent in layers
// the benchmark cannot see from outside (wire, server, engine CPU).
//
// Which backend call served which request is not known from outside the
// program, so overlap in time stands in for causation; the order puts the
// file operations a call of that kind waits for first.
func selfTimes(spans []span) (self [numKinds]int64, clientTotal int64) {
	var byKind [numKinds][]interval
	var verify [numConns][]interval // a client's checking delays only its own calls
	for _, s := range spans {
		switch {
		case s.kind == kVerify:
			verify[s.conn] = append(verify[s.conn], interval{s.start, s.end})
		case !s.kind.isClientCall() && s.kind != kProbe:
			byKind[s.kind] = append(byKind[s.kind], interval{s.start, s.end})
		}
	}
	for k := range byKind {
		byKind[k] = union(byKind[k])
	}
	for c := range verify {
		verify[c] = union(verify[c])
	}
	writeOrder := []spanKind{kWalSync, kWalWrite, kRunsWrite, kRunsSync, kDataWrite, kDataSync,
		kRunsRead, kDataRead, kWalRead, kFlush, kMerge, kMigration}
	readOrder := []spanKind{kVerify, kRunsRead, kDataRead, kWalSync, kWalWrite, kRunsWrite, kRunsSync,
		kDataWrite, kDataSync, kWalRead, kFlush, kMerge, kMigration}
	var rest, next []interval
	for _, s := range spans {
		if !s.kind.isClientCall() {
			continue
		}
		clientTotal += s.end - s.start
		order := writeOrder
		if s.kind == kGet || s.kind == kScan {
			order = readOrder
		}
		rest = append(rest[:0], interval{s.start, s.end})
		for _, k := range order {
			list := byKind[k]
			if k == kVerify {
				list = verify[s.conn]
			}
			if len(list) == 0 {
				continue
			}
			next = next[:0]
			for _, r := range rest {
				at := r.start
				for _, c := range overlapping(list, r.start, r.end) {
					lo, hi := max(c.start, r.start), min(c.end, r.end)
					self[k] += hi - lo
					if lo > at {
						next = append(next, interval{at, lo})
					}
					at = hi
				}
				if at < r.end {
					next = append(next, interval{at, r.end})
				}
			}
			rest, next = next, rest
		}
		for _, r := range rest {
			self[s.kind] += r.end - r.start
		}
	}
	return self, clientTotal
}

// setParents gives every span that is not a client call the client call it
// overlaps longest, and failing that the lifecycle span that contains it.
func setParents(spans []span) {
	var calls, life []int
	for i, s := range spans {
		switch {
		case s.kind.isClientCall():
			calls = append(calls, i)
		case s.kind >= kFlush && s.kind <= kRecovery:
			life = append(life, i)
		}
	}
	sort.Slice(calls, func(a, b int) bool { return spans[calls[a]].start < spans[calls[b]].start })
	// Client calls of one connection do not overlap, so at most a few calls
	// (one per connection, plus pipelined transactions) are active at once:
	// look a bounded distance back from the first call starting after s.
	const lookBack = 512
	for i := range spans {
		s := &spans[i]
		if s.kind.isClientCall() || s.parent != 0 {
			continue
		}
		hi := sort.Search(len(calls), func(j int) bool { return spans[calls[j]].start >= s.end })
		var best int64
		for j := hi - 1; j >= 0 && j >= hi-lookBack; j-- {
			c := spans[calls[j]]
			if ov := min(c.end, s.end) - max(c.start, s.start); ov > best {
				best, s.parent = ov, int32(calls[j]+1)
			}
		}
		if s.parent == 0 && s.kind < kFlush {
			for _, j := range life {
				if spans[j].start <= s.start && s.end <= spans[j].end {
					s.parent = int32(j + 1)
					break
				}
			}
		}
	}
}

// writeTrace writes the spans as a JSON array of
// {"id","parent","name","conn","start_ns","end_ns"}, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	w.WriteString("[\n")
	for i, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, kindNames[s.kind]...)
		b = append(b, `","conn":`...)
		b = strconv.AppendInt(b, int64(s.conn), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '}')
		if i < len(spans)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		w.Write(b)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
