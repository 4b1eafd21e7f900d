package runfile

// The one way to open a run. Recovery reads back what Writer.Close wrote:
// LoadIndex (priced, inline) and LoadIndexOffline (data plane + recorded
// spans) must both reconstruct exactly the Run the writer returned, and
// charge the same simulated reads — on a simulated volume and through the
// OS-file backend (write → sync → close → reopen, the path a file-backed
// database takes for every run named in its redo log).

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"masm/internal/sim"
	"masm/internal/storage"
	"masm/internal/storage/filedev"
	"masm/internal/update"
)

// loadIndexCfg makes granules and I/O units small enough that a few
// hundred records span many of both.
var loadIndexCfg = Config{IOSize: 256, IndexGranularity: 64}

// runBacking supplies a fresh volume to write a run on and, once written,
// the volume recovery would read it back from.
type runBacking struct {
	name   string
	create func(t *testing.T) (vol *storage.Volume, reopen func() *storage.Volume)
}

var runBackings = []runBacking{
	{"sim", func(t *testing.T) (*storage.Volume, func() *storage.Volume) {
		vol := ssdVolume(t, 4<<20)
		return vol, func() *storage.Volume { return vol }
	}},
	{"filedev", func(t *testing.T) (*storage.Volume, func() *storage.Volume) {
		const volSize = 4 << 20
		path := filepath.Join(t.TempDir(), "cache.runs")
		open := func() *storage.Volume {
			be, err := filedev.Open(path, volSize)
			if err != nil {
				t.Fatal(err)
			}
			vol, err := storage.NewVolumeOn(sim.NewDevice(sim.IntelX25E()), 0, be)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { vol.Close() })
			return vol
		}
		vol := open()
		return vol, func() *storage.Volume {
			if err := vol.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := vol.Close(); err != nil {
				t.Fatal(err)
			}
			return open()
		}
	}},
}

// diffRun reports how two runs differ — index, zone maps and key filter
// included — ignoring which volume they sit on and the nil-versus-empty
// distinction of an empty run's index.
func diffRun(got, want *Run) string {
	g, w := *got, *want
	g.vol, w.vol = nil, nil
	for _, r := range []*Run{&g, &w} {
		if len(r.index) == 0 {
			r.index, r.zones = nil, nil
		}
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("got %+v\nwant %+v", g, w)
	}
	return ""
}

// checkLoadIndexMatchesWriter writes recs as a run on two identical
// volumes of the backing, opens one inline and the other offline, and
// holds both to the writer's Run and to each other's simulated clock.
func checkLoadIndexMatchesWriter(t *testing.T, b runBacking, recs []update.Record) {
	t.Helper()
	const off, id = 4096, 42
	var written [2]*Run
	var vols [2]*storage.Volume
	var wrote sim.Time
	for i := range vols {
		vol, reopen := b.create(t)
		run, end, err := WriteRun(vol, off, 0, id, recs, loadIndexCfg)
		if err != nil {
			t.Fatal(err)
		}
		written[i], vols[i], wrote = run, reopen(), end
	}
	if d := diffRun(written[1], written[0]); d != "" {
		t.Fatalf("two writes of the same records differ:\n%s", d)
	}
	w := written[0]
	if w.IndexSize < zoneBlockHeader+zoneBlockFooter || w.Count != int64(len(recs)) {
		t.Fatalf("writer: index size %d, count %d for %d records", w.IndexSize, w.Count, len(recs))
	}

	inline, inlineEnd, err := LoadIndex(vols[0], w.Off, w.Size, w.IndexSize, wrote, id, w.Passes, w.CRC, loadIndexCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRun(inline, w); d != "" {
		t.Fatalf("LoadIndex differs from the writer's run:\n%s", d)
	}
	offline, spans, err := LoadIndexOffline(vols[1], w.Off, w.Size, w.IndexSize, id, w.Passes, w.CRC, loadIndexCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRun(offline, w); d != "" {
		t.Fatalf("LoadIndexOffline differs from the writer's run:\n%s", d)
	}

	// The recorded spans are the priced open's reads: the block, then the
	// data in IOSize chunks — and charging them costs what the inline open
	// cost on the twin volume.
	want := []Span{{Off: w.Off + w.Size, Len: w.IndexSize}}
	for o := int64(0); o < w.Size; o += int64(loadIndexCfg.IOSize) {
		want = append(want, Span{Off: w.Off + o, Len: min(int64(loadIndexCfg.IOSize), w.Size-o)})
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("offline spans %v, want %v", spans, want)
	}
	offlineEnd, err := ChargeSpans(vols[1], wrote, spans)
	if err != nil {
		t.Fatal(err)
	}
	if offlineEnd != inlineEnd {
		t.Fatalf("charged spans end at %d, inline open at %d", offlineEnd, inlineEnd)
	}

	// The key filter is memory-only, so the writer's run answers for it
	// even over a volume since closed; both opens rebuilt theirs from the
	// data sweep (diffRun above already held them bit-equal) and serve
	// point lookups from the reopened bytes.
	checkPointLookups(t, w, recs, false)
	checkPointLookups(t, inline, recs, true)
	checkPointLookups(t, offline, recs, true)

	// Byte-identical iteration: the opened run yields exactly the records
	// that were written, in order.
	got := drainScanner(t, inline.Scan(inlineEnd, 0, ^uint64(0), int64(1)<<62, loadIndexCfg.IndexGranularity))
	if !sameRecords(got, recs) {
		t.Fatalf("opened run scans %d records, %d written", len(got), len(recs))
	}
}

// quickRunRecords draws a sorted record set with duplicate-key chains long
// enough to cross granules and the occasional record larger than IOSize.
func quickRunRecords(seed int64, n int) []update.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]update.Record, n)
	for i := range recs {
		recs[i] = update.Record{TS: int64(i + 1), Key: uint64(rng.Intn(n/8 + 1)), Op: update.Delete}
		switch r := rng.Intn(100); {
		case r == 0:
			recs[i].Op, recs[i].Payload = update.Insert, make([]byte, 300+rng.Intn(400))
		case r < 60:
			recs[i].Op, recs[i].Payload = update.Insert, make([]byte, rng.Intn(120))
		}
		rng.Read(recs[i].Payload)
	}
	sort.SliceStable(recs, func(i, j int) bool { return update.Less(&recs[i], &recs[j]) })
	return recs
}

func TestLoadIndexMatchesWriter(t *testing.T) {
	chain := make([]update.Record, 40) // one key, five granules
	for i := range chain {
		chain[i] = update.Record{Key: 9, TS: int64(i + 1), Op: update.Insert, Payload: []byte("dup")}
	}
	big := []update.Record{
		{Key: 1, TS: 1, Op: update.Insert, Payload: []byte("small")},
		{Key: 2, TS: 2, Op: update.Insert, Payload: make([]byte, 3*loadIndexCfg.IOSize)},
		{Key: 3, TS: 3, Op: update.Delete},
	}
	fixed := map[string][]update.Record{
		"empty":      nil,
		"one":        sortedRecs(1, 1),
		"dup-chain":  chain,
		"big-record": big,
	}
	for _, b := range runBackings {
		for name, recs := range fixed {
			t.Run(b.name+"/"+name, func(t *testing.T) { checkLoadIndexMatchesWriter(t, b, recs) })
		}
		t.Run(b.name+"/quick", func(t *testing.T) {
			f := func(seed int64, nRaw uint16) bool {
				checkLoadIndexMatchesWriter(t, b, quickRunRecords(seed, int(nRaw%1500)))
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
