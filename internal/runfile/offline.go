package runfile

import (
	"masm/internal/sim"
	"masm/internal/storage"
)

// Span is one recorded device read: the timing half of a data-plane scan,
// to be charged later with ChargeSpans.
type Span struct {
	Off int64
	Len int64
}

// stagedReader is LoadIndexOffline's data-plane reader: it stages up to
// batch bytes per physical PeekAt (never reading past hi), slices the
// requested chunks out of the window, and records each logical read as a
// Span for later ChargeSpans replay. Non-sequential requests restage.
//
// The physical fetches are batched: a scan stages offlineBatch×IOSize
// bytes per pread and slices the IOSize chunks out of the staging window,
// so a run costs a handful of syscalls instead of one per priced read.
// The recorded spans — and therefore the simulated timeline — still
// describe IOSize reads; only the data plane batches.
type stagedReader struct {
	vol   *storage.Volume
	hi    int64 // exclusive upper bound of readable bytes
	spans []Span
	pbuf  []byte
	poff  int64 // device offset of pbuf[0]
	ppos  int   // consumed bytes of the staged window
	pfill int   // valid bytes in the staged window
}

func newStagedReader(vol *storage.Volume, hi int64, batch int) *stagedReader {
	return &stagedReader{vol: vol, hi: hi, pbuf: storage.GetBuf(batch)}
}

func (sr *stagedReader) read(p []byte, readOff int64) error {
	for done := 0; done < len(p); {
		want := readOff + int64(done)
		if sr.ppos < sr.pfill && sr.poff+int64(sr.ppos) != want {
			sr.ppos, sr.pfill = 0, 0 // non-sequential read: restage
		}
		if sr.ppos == sr.pfill {
			n := int64(cap(sr.pbuf))
			if n > sr.hi-want {
				n = sr.hi - want
			}
			if err := sr.vol.PeekAt(sr.pbuf[:n], want); err != nil {
				return err
			}
			sr.poff, sr.ppos, sr.pfill = want, 0, int(n)
		}
		c := copy(p[done:], sr.pbuf[sr.ppos:sr.pfill])
		done += c
		sr.ppos += c
	}
	sr.spans = append(sr.spans, Span{Off: readOff, Len: int64(len(p))})
	return nil
}

func (sr *stagedReader) release() { storage.PutBuf(sr.pbuf) }

// offlineBatch is how many priced-size reads one offline physical pread
// stages (1MB batches at the default 64KB I/O size).
const offlineBatch = 16

// ChargeSpans prices recorded scan spans on the volume's simulated device
// sequentially from at, exactly as the priced LoadIndex would have.
func ChargeSpans(vol *storage.Volume, at sim.Time, spans []Span) (sim.Time, error) {
	now := at
	for _, s := range spans {
		c, err := vol.ChargeRead(now, s.Off, s.Len)
		if err != nil {
			return now, err
		}
		now = c.End
	}
	return now, nil
}
