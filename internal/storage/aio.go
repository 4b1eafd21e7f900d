package storage

import (
	"sync"
	"sync/atomic"

	"masm/internal/obs"
	"masm/internal/sim"
)

// Async I/O for the data plane. The engine's timing is simulated, but its
// bytes are real — and on the file backend every migration batch used to
// reach the kernel one pwrite at a time, driving the device at queue
// depth 1. IOPool fixes the wall-clock half without touching the
// simulated half: a batch of backend operations (PeekAt/PokeAt — no
// virtual-time pricing) is issued concurrently through a bounded worker
// pool, and only after the bytes have moved does the caller price every
// request on the simulated device, serially, in the request order the
// old one-at-a-time code used. Same pricing calls in the same order ⇒
// bit-identical virtual timeline; concurrent preads/pwrites ⇒ the kernel
// finally sees queue depth > 1. (Goroutines blocked in preads occupy OS
// threads, so the overlap holds even at GOMAXPROCS=1.)

// IOReq is one data-plane operation of a batch: read into (or write
// from) Buf at volume offset Off.
type IOReq struct {
	Buf   []byte
	Off   int64
	Write bool
}

// IOPoolMetrics carries the pool's observability handles (nil-safe).
type IOPoolMetrics struct {
	Depth     *obs.Gauge   // in-flight backend ops right now
	DepthPeak *obs.Gauge   // high-water of Depth since process start
	Batches   *obs.Counter // batches submitted
	Ops       *obs.Counter // individual ops submitted
}

// IOPool issues batches of backend operations concurrently, bounded by a
// fixed worker count. The zero value is not usable; see NewIOPool. A
// pool is safe for concurrent use by independent batches.
type IOPool struct {
	workers int
	sem     chan struct{}
	depth   atomic.Int64
	peak    atomic.Int64
	m       IOPoolMetrics
}

// DefaultIOWorkers is the default bound on concurrent backend operations
// per pool — deep enough to keep an SSD's queue busy, small enough that
// a recovery or migration burst cannot exhaust OS threads.
const DefaultIOWorkers = 8

// NewIOPool creates a pool bounded to workers concurrent operations
// (DefaultIOWorkers if workers <= 0).
func NewIOPool(workers int) *IOPool {
	if workers <= 0 {
		workers = DefaultIOWorkers
	}
	return &IOPool{workers: workers, sem: make(chan struct{}, workers)}
}

// SetMetrics installs the pool's metric handles.
func (p *IOPool) SetMetrics(m IOPoolMetrics) { p.m = m }

func (p *IOPool) enter() {
	p.sem <- struct{}{}
	d := p.depth.Add(1)
	p.m.Depth.Set(d)
	for {
		cur := p.peak.Load()
		if d <= cur {
			break
		}
		if p.peak.CompareAndSwap(cur, d) {
			p.m.DepthPeak.Set(d)
			break
		}
	}
}

func (p *IOPool) exit() {
	p.m.Depth.Set(p.depth.Add(-1))
	<-p.sem
}

// Run moves every request's bytes through vol's backend — concurrently,
// up to the pool's worker bound — and returns once all are complete. No
// simulated time is charged: Run is the data half of a batch; the caller
// prices the timing half (Charge) afterwards. The first error wins;
// remaining requests still run to completion (a partial batch must not
// leave goroutines writing into a buffer the caller has moved on from).
func (p *IOPool) Run(vol *Volume, reqs []IOReq) error {
	if len(reqs) == 0 {
		return nil
	}
	p.m.Batches.Inc()
	p.m.Ops.Add(int64(len(reqs)))
	if len(reqs) == 1 {
		// One op gains nothing from a handoff; issue it inline.
		r := reqs[0]
		if r.Write {
			return vol.PokeAt(r.Buf, r.Off)
		}
		return vol.PeekAt(r.Buf, r.Off)
	}
	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	for i := range reqs {
		r := &reqs[i]
		p.enter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.exit()
			var err error
			if r.Write {
				err = vol.PokeAt(r.Buf, r.Off)
			} else {
				err = vol.PeekAt(r.Buf, r.Off)
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// Charge prices a completed batch on the simulated device, serially and
// in request order, chaining each completion into the next issue time —
// exactly the arithmetic the serial one-op-at-a-time path performed, so
// replacing serial I/O with Run+Charge cannot move the virtual clock.
func Charge(vol *Volume, at sim.Time, reqs []IOReq) (sim.Time, error) {
	now := at
	for i := range reqs {
		r := &reqs[i]
		var c sim.Completion
		var err error
		if r.Write {
			c, err = vol.ChargeWrite(now, r.Off, int64(len(r.Buf)))
		} else {
			c, err = vol.ChargeRead(now, r.Off, int64(len(r.Buf)))
		}
		if err != nil {
			return now, err
		}
		now = c.End
	}
	return now, nil
}

// RunAndCharge is the drop-in replacement for a serial loop of
// Volume.ReadAt/WriteAt calls over a batch: concurrent data plane, then
// serial pricing in request order.
func (p *IOPool) RunAndCharge(vol *Volume, at sim.Time, reqs []IOReq) (sim.Time, error) {
	if err := p.Run(vol, reqs); err != nil {
		return at, err
	}
	return Charge(vol, at, reqs)
}
