package table

import (
	"fmt"

	"masm/internal/sim"
)

// PageForKey returns the number of the page whose key range covers key.
func (t *Table) PageForKey(key uint64) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.refs) == 0 {
		return -1
	}
	return t.refs[t.refIndexForKey(key)].pageNo
}

// Lookup reads the one page whose key range covers key, issued at at,
// and returns the row stored under key if the page holds one. The page is
// read into *page, the caller's buffer, sized to one page here and reused
// across lookups; the row's body aliases it. Only the record headers up to
// key are walked, in place: nothing is decoded or allocated. The page
// timestamp is reported either way: a caller folding cached updates onto
// the row needs it to skip the ones migration already applied.
func (t *Table) Lookup(at sim.Time, key uint64, page *[]byte) (row Row, found bool, end sim.Time, err error) {
	pageNo := t.PageForKey(key)
	if pageNo < 0 {
		return Row{}, false, at, nil
	}
	if cap(*page) < t.cfg.PageSize {
		*page = make([]byte, t.cfg.PageSize)
	}
	buf := (*page)[:t.cfg.PageSize]
	c, err := t.vol.ReadAt(at, buf, pageNo*int64(t.cfg.PageSize))
	if err != nil {
		return Row{}, false, at, err
	}
	row, found, err = findInPage(buf, key)
	if err != nil {
		return Row{}, false, at, fmt.Errorf("table: page %d: %w", pageNo, err)
	}
	return row, found, c.End, nil
}

// ReadPageAt reads and decodes one page, charging simulated time; it is
// the building block of the in-place-update baseline's random
// read-modify-write I/Os (paper §2.2).
func (t *Table) ReadPageAt(at sim.Time, pageNo int64) (*Page, sim.Time, error) {
	p, c, err := t.readPage(at, pageNo)
	if err != nil {
		return nil, at, err
	}
	return p, c.End, nil
}

// WritePageAt encodes and writes one page in place, charging simulated
// time.
func (t *Table) WritePageAt(at sim.Time, pageNo int64, p *Page) (sim.Time, error) {
	c, err := t.writePage(at, pageNo, p)
	if err != nil {
		return at, err
	}
	return c.End, nil
}
