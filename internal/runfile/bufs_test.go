package runfile

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"masm/internal/sim"
	"masm/internal/update"
)

// bufsTestSize is checkedBufs' buffer size: one 8 KiB read plus 1 KiB for
// a carried record, so a carried record over 1 KiB takes the one-off
// path.
const bufsTestSize = 9 << 10

// checkedBufs is a Bufs that frees a buffer as early as the contract
// allows: it poisons it and puts it in pool for the next Get, on any
// goroutine. An unused buffer is freed as it is retired, a used one once
// the consumer is past the records returned before (free). So a record
// the scanner hands out after retiring its buffer, a carried record it
// fails to copy out first, or a buffer it calls unused while records
// alias it shows as a wrong payload, and a read into a retired buffer
// races with its next user.
type checkedBufs struct {
	pool          *sync.Pool // of *[]byte, bufsTestSize long
	out           int        // handed out and not yet retired
	gets, oneOffs int
	pending       [][]byte // retired used buffers, not yet freed
}

func (b *checkedBufs) Get(n int) []byte {
	b.out++
	b.gets++
	if n > bufsTestSize {
		b.oneOffs++
		return make([]byte, 0, n)
	}
	return (*b.pool.Get().(*[]byte))[:0]
}

func (b *checkedBufs) Retire(buf []byte, used bool) {
	b.out--
	if used {
		b.pending = append(b.pending, buf)
		return
	}
	b.put(buf)
}

// free frees the retired used buffers: the consumer is past every record
// returned before the latest call.
func (b *checkedBufs) free() {
	for _, buf := range b.pending {
		b.put(buf)
	}
	b.pending = b.pending[:0]
}

func (b *checkedBufs) put(buf []byte) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 0xA5
	}
	if cap(buf) == bufsTestSize {
		b.pool.Put(&buf)
	}
}

func newBufPool() *sync.Pool {
	return &sync.Pool{New: func() any { b := make([]byte, bufsTestSize); return &b }}
}

// bufsRun writes a run of about 2,000 records with payloads of 0 to 300
// bytes, every 97th of 1–4 KiB (more than a buffer's slack), in 8 KiB
// reads over 1 KiB granules.
func bufsRun(t *testing.T, seed int64) (*Run, []update.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var recs []update.Record
	ts := rng.Perm(4000)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(301)
		if i%97 == 0 {
			n = 1<<10 + rng.Intn(3<<10)
		}
		p := make([]byte, n)
		rng.Read(p)
		recs = append(recs, update.Record{TS: int64(1 + ts[i]), Key: uint64(i/2) * 3, Op: update.Insert, Payload: p})
	}
	sort.Slice(recs, func(i, j int) bool { return update.Less(&recs[i], &recs[j]) })
	run, _, err := WriteRun(ssdVolume(t, 8<<20), 0, 0, 1, recs, Config{IOSize: 8 << 10, IndexGranularity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return run, recs
}

// scanChecked scans [begin, end] of run at qts under pred through bufs,
// pulling batches of random sizes, and checks every record against want,
// as a consumer one batch behind would: each batch as it comes and again
// after the next call, before bufs frees what that call retired. It
// returns the simulated completion time.
func scanChecked(run *Run, bufs *checkedBufs, rng *rand.Rand, begin, end uint64, qts int64, gran int, pred *update.Pred, want []update.Record) (sim.Time, error) {
	sc := run.ScanPred(0, begin, end, qts, gran, pred)
	sc.UseBufs(bufs)
	dst, prev := make([]update.Record, 64), make([]update.Record, 0, 64)
	check := func(recs []update.Record, first int) error {
		for j, r := range recs {
			i := first + j
			if i >= len(want) || r.Key != want[i].Key || r.TS != want[i].TS || string(r.Payload) != string(want[i].Payload) {
				return fmt.Errorf("record %d: (%d, %d) with %d payload bytes, want %+v", i, r.Key, r.TS, len(r.Payload), want[min(i, len(want)-1)])
			}
		}
		return nil
	}
	i := 0
	for {
		n, err := sc.NextBatch(dst[:1+rng.Intn(len(dst))])
		if err != nil {
			return 0, err
		}
		if err := check(prev, i-len(prev)); err != nil {
			return 0, fmt.Errorf("after the next call: %w", err)
		}
		bufs.free()
		if n == 0 {
			break
		}
		if err := check(dst[:n], i); err != nil {
			return 0, err
		}
		prev = append(prev[:0], dst[:n]...)
		i += n
	}
	sc.Release()
	bufs.free()
	if i != len(want) {
		return 0, fmt.Errorf("%d records, want %d", i, len(want))
	}
	return sc.Time(), nil
}

// TestScannerBufsMatchAllocating: a scanner reading into recycled buffers
// returns what a scanner allocating its reads returns, at the same
// simulated time (the allocating scans read a twin of the run on a device
// of their own), over random ranges, snapshots, granularities and
// predicates, though each buffer is poisoned and reused the moment it is
// retired. Every buffer it draws is retired once by the end of its scan.
func TestScannerBufsMatchAllocating(t *testing.T) {
	run, recs := bufsRun(t, 1)
	twin, _ := bufsRun(t, 1)
	rng := rand.New(rand.NewSource(2))
	bufs := &checkedBufs{pool: newBufPool()}
	for iter := 0; iter < 200; iter++ {
		begin := uint64(rng.Intn(3200))
		end := begin + uint64(rng.Intn(3200))
		qts := int64(1 + rng.Intn(4200))
		gran := []int{1 << 10, 8 << 10}[rng.Intn(2)]
		var pred *update.Pred
		if rng.Intn(3) == 0 {
			lo := uint64(rng.Intn(3000))
			pred = update.NewPred([]update.KeyRange{{Lo: lo, Hi: lo + uint64(rng.Intn(600))}, {Lo: lo + 1000, Hi: lo + 1200}})
		}
		want := predFilter(expectVisible(recs, begin, end, qts, false, 0, 0), pred)
		plain := twin.ScanPred(0, begin, end, qts, gran, pred)
		if got := drainScanner(t, plain); !sameRecords(got, want) {
			t.Fatalf("[%d, %d] at %d: the allocating scan returned %d records, want %d", begin, end, qts, len(got), len(want))
		}
		at, err := scanChecked(run, bufs, rng, begin, end, qts, gran, pred, want)
		if err != nil {
			t.Fatalf("[%d, %d] at %d, granularity %d, pred %v: %v", begin, end, qts, gran, pred != nil, err)
		}
		if at != plain.Time() {
			t.Fatalf("[%d, %d] at %d: finished at %v, the allocating scan at %v", begin, end, qts, at, plain.Time())
		}
		if bufs.out != 0 {
			t.Fatalf("[%d, %d] at %d: %d buffers never retired", begin, end, qts, bufs.out)
		}
	}
	if bufs.gets < 1000 || bufs.oneOffs == 0 {
		t.Fatalf("%d buffers drawn, %d of them one-offs: the scans hardly read through Bufs", bufs.gets, bufs.oneOffs)
	}
}

// TestConcurrentScansRecycledBufs: four goroutines scan one run through
// buffers from one shared pool, each poisoned and put back the moment it
// is retired, so under the race detector a scanner still touching a
// buffer it retired races with the goroutine that drew it next.
func TestConcurrentScansRecycledBufs(t *testing.T) {
	run, recs := bufsRun(t, 3)
	pool := newBufPool()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			bufs := &checkedBufs{pool: pool}
			for i := 0; i < 30; i++ {
				begin := uint64(rng.Intn(1500))
				end := begin + 1500
				want := expectVisible(recs, begin, end, 1<<62, false, 0, 0)
				if _, err := scanChecked(run, bufs, rng, begin, end, 1<<62, 1<<10, nil, want); err != nil {
					t.Errorf("goroutine %d, [%d, %d]: %v", g, begin, end, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
