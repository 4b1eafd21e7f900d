package wal

import (
	"runtime"
	"testing"

	"masm/internal/masm"
	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/update"
)

// buildBigLog writes a synthetic log of roughly wantBytes: batches of
// updates, each batch covered by a flush record, so a streaming replay's
// recovered state stays tiny no matter how long the log is. Returns the
// volume and the approximate body size written.
func buildBigLog(t *testing.T, wantBytes int64) (*storage.Volume, int64) {
	t.Helper()
	dev := sim.NewDevice(sim.IntelX25E())
	vol, err := storage.NewVolume(dev, 0, wantBytes+(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	l := Open(vol).ForTable(0)
	now := sim.Time(0)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var (
		ts      int64
		runID   int64
		written int64
	)
	for written < wantBytes {
		for i := 0; i < 64; i++ {
			ts++
			rec := update.Record{TS: ts, Key: uint64(ts), Op: update.Insert, Payload: payload}
			if now, err = l.LogUpdate(now, rec); err != nil {
				t.Fatal(err)
			}
			written += int64(len(payload)) + 32
		}
		runID++
		// The flush covers every update so far: replay prunes the whole
		// pending set each time the record streams past.
		if now, err = l.LogFlush(now, masm.RunMeta{RunID: runID, Off: runID * 4096, Size: 4096, MaxTS: ts, Passes: 1, IndexSize: 80}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.BatchBase().(*Log).Sync(now); err != nil {
		t.Fatal(err)
	}
	return vol, written
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestStreamingReplayPeakMemory is the regression test for the old
// accumulate-the-whole-log replay: wal.ReadAll used to grow one append
// buffer (and an entries slice holding every decoded payload) across the
// entire log, so replay memory was O(log). The streaming path must hold
// O(chunk): the sliding window never exceeds a few chunks, and the
// recovered state after replaying a log whose flushes cover its updates
// is near-empty.
func TestStreamingReplayPeakMemory(t *testing.T) {
	logBytes := int64(192 << 20) // multi-hundred-MB territory
	if testing.Short() || raceEnabled {
		logBytes = 24 << 20
	}
	vol, written := buildBigLog(t, logBytes)
	t.Logf("synthetic log: %d MB", written>>20)

	base := liveHeap()
	replayPeakBuf.Store(0)
	r := NewReplayer()
	var (
		entries  int
		peakLive uint64
	)
	_, err := ReadStream(vol, 0, func(e Entry) error {
		r.Observe(e)
		entries++
		// Sample live heap a handful of times mid-replay; forcing a GC at
		// the sample point makes HeapAlloc ≈ reachable bytes, so an
		// O(log) accumulation would show up here unmistakably.
		if entries%20000 == 0 {
			if h := liveHeap(); h > peakLive {
				peakLive = h
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	states := r.States()

	if peak := replayPeakBuf.Load(); peak > 8*replayChunk {
		t.Fatalf("sliding replay window grew to %d bytes (> 8 chunks of %d): replay memory is no longer O(chunk)", peak, replayChunk)
	}
	// The mid-replay live heap may exceed the baseline only by a bounded
	// working set (sliding window, replayer state, GC slack) — never by
	// anything proportional to the log.
	bound := base + 64<<20
	if peakLive > bound {
		t.Fatalf("mid-replay live heap peaked at %d MB over a %d MB baseline replaying a %d MB log: O(log) accumulation is back",
			peakLive>>20, base>>20, written>>20)
	}
	st := states[0]
	if st == nil {
		t.Fatal("no table-0 state recovered")
	}
	if len(st.Pending) != 0 {
		t.Fatalf("flush-covered replay left %d pending updates", len(st.Pending))
	}
	if len(st.Runs) == 0 {
		t.Fatal("replay recovered no runs")
	}
	if entries == 0 {
		t.Fatal("replay emitted no entries")
	}
}

// readAll replays the log from vol into a slice. It materializes every
// entry — live heap proportional to the log — which is why recovery folds
// ReadStream into a Replayer instead and only tests and fuzz targets, on
// small logs, collect.
func readAll(vol *storage.Volume, at sim.Time) ([]Entry, sim.Time, error) {
	var entries []Entry
	now, err := ReadStream(vol, at, func(e Entry) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, now, err
	}
	return entries, now, nil
}

// TestReadStreamMatchesReadAll pins the wrapper equivalence: the streamed
// entries are exactly what readAll materializes, in order.
func TestReadStreamMatchesReadAll(t *testing.T) {
	vol, _ := buildBigLog(t, 2<<20)
	all, _, err := readAll(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	_, err = ReadStream(vol, 0, func(e Entry) error {
		if i >= len(all) {
			t.Fatalf("stream emitted more than the %d materialized entries", len(all))
		}
		a := all[i]
		if e.Kind != a.Kind || e.Table != a.Table || e.Rec.TS != a.Rec.TS || e.Run.RunID != a.Run.RunID {
			t.Fatalf("entry %d diverges: stream %+v vs readall %+v", i, e, a)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(all) {
		t.Fatalf("stream emitted %d entries, ReadAll %d", i, len(all))
	}
}
