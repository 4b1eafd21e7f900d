package table

import (
	"sync"
	"testing"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// recordedOp is one backend request as it reached the data plane.
type recordedOp struct {
	write  bool
	off, n int64
}

// recordingBackend logs every ReadAt/WriteAt in arrival order.
type recordingBackend struct {
	storage.Backend
	mu  sync.Mutex
	ops []recordedOp
}

func (r *recordingBackend) note(write bool, off int64, n int) {
	r.mu.Lock()
	r.ops = append(r.ops, recordedOp{write: write, off: off, n: int64(n)})
	r.mu.Unlock()
}

func (r *recordingBackend) ReadAt(p []byte, off int64) error {
	r.note(false, off, len(p))
	return r.Backend.ReadAt(p, off)
}

func (r *recordingBackend) WriteAt(p []byte, off int64) error {
	r.note(true, off, len(p))
	return r.Backend.WriteAt(p, off)
}

// TestShadowBatchWriteOrder pins the order in which a migration's shadow
// batches reach the backend: after each batch read, the batch's base
// pages as one write, then each overflow page as one page write in
// ascending slot order. Replaying the recorded requests one after another
// on a fresh device of the same model ends at the virtual time ApplyStream
// returned, so every request was priced in arrival order.
func TestShadowBatchWriteOrder(t *testing.T) {
	params := sim.Barracuda7200()
	be := &recordingBackend{Backend: storage.NewMemBackend(1 << 30)}
	vol, err := storage.NewVolumeOn(sim.NewDevice(params), 0, be)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = body(keys[i], 92)
	}
	cfg := DefaultConfig()
	tbl, err := Load(vol, cfg, keys, bodies)
	if err != nil {
		t.Fatal(err)
	}
	be.mu.Lock()
	be.ops = nil
	be.mu.Unlock()

	// Dense inserts into two narrow key ranges, far enough apart to land
	// in different 64 KiB batches, each splitting into several overflow
	// pages.
	var upds []update.Record
	ts := int64(1)
	for _, lo := range []uint64{101, 2501} {
		for k := lo; k < lo+300; k += 2 {
			upds = append(upds, update.Record{TS: ts, Key: k, Op: update.Insert, Payload: body(k, 92)})
			ts++
		}
	}
	end, res, err := tbl.ApplyStream(0, ts, update.NewSliceIterator(upds), 64<<10, 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}

	ps := int64(cfg.PageSize)
	var (
		basePages, ovfPages int64
		batches, multiOvf   int
	)
	ops := be.ops
	for i := 0; i < len(ops); {
		if !ops[i].write {
			i++
			continue
		}
		// A run of writes between two reads is one shadow batch.
		base := ops[i]
		if base.off%ps != 0 || base.n%ps != 0 {
			t.Fatalf("op %d: base write [%d,+%d) is not whole pages", i, base.off, base.n)
		}
		batches++
		basePages += base.n / ps
		i++
		prev := int64(-1)
		ovfs := 0
		for ; i < len(ops) && ops[i].write; i++ {
			o := ops[i]
			if o.n != ps || o.off%ps != 0 {
				t.Fatalf("op %d: overflow write [%d,+%d) is not one page", i, o.off, o.n)
			}
			if o.off >= base.off && o.off < base.off+base.n {
				t.Fatalf("op %d: overflow write at %d inside the batch's base run [%d,+%d)", i, o.off, base.off, base.n)
			}
			if o.off <= prev {
				t.Fatalf("op %d: overflow write at slot %d after slot %d: not in slot order", i, o.off/ps, prev/ps)
			}
			prev = o.off
			ovfs++
		}
		ovfPages += int64(ovfs)
		if ovfs > 1 {
			multiOvf++
		}
	}
	if basePages != res.PagesWritten || ovfPages != res.OverflowPages {
		t.Fatalf("recorded %d base and %d overflow page writes, ApplyStream reports %d and %d",
			basePages, ovfPages, res.PagesWritten, res.OverflowPages)
	}
	if batches < 2 || multiOvf < 2 {
		t.Fatalf("want at least 2 rewritten batches with several overflow pages each, got %d batches, %d with >1 overflow page", batches, multiOvf)
	}

	dev := sim.NewDevice(params)
	now := sim.Time(0)
	for _, o := range ops {
		var c sim.Completion
		if o.write {
			c = dev.Write(now, o.off, o.n)
		} else {
			c = dev.Read(now, o.off, o.n)
		}
		now = c.End
	}
	if now != end {
		t.Fatalf("serial replay of the recorded requests ends at %v, ApplyStream returned %v", now, end)
	}
}
