// Package table implements the prototype row-store data warehouse table of
// the paper's evaluation (§4.1): pages holding records clustered in primary
// key order, a range scan that issues large sequential I/Os, and page-level
// update application for in-place migration.
//
// Every page carries the timestamp of the last update applied to it,
// reusing what would be the LSN field of a conventional page header
// (paper §3.2, "Timestamps"). Queries and migrations compare this
// timestamp against update timestamps to decide whether an update has
// already been applied, which is what makes concurrent queries during
// in-place migration correct.
package table

import (
	"encoding/binary"
	"fmt"
)

// pageHeaderSize is the fixed page header: timestamp (8), record count (2),
// used bytes (2), reserved (4).
const pageHeaderSize = 16

// recHeaderSize precedes each record in a page: key (8) + body length (2).
const recHeaderSize = 10

// Page is the decoded form of one data page: records in key order plus the
// page timestamp.
type Page struct {
	TS     int64
	Keys   []uint64
	Bodies [][]byte
}

// UsedBytes returns the encoded size of the page content (excluding the
// fixed header).
func (p *Page) UsedBytes() int {
	n := 0
	for _, b := range p.Bodies {
		n += recHeaderSize + len(b)
	}
	return n
}

// FitsIn reports whether the page encodes into pageSize bytes.
func (p *Page) FitsIn(pageSize int) bool {
	return pageHeaderSize+p.UsedBytes() <= pageSize
}

// Encode serializes the page into buf, which must be exactly one page
// long. Unused space is zeroed.
func (p *Page) Encode(buf []byte) error {
	if !p.FitsIn(len(buf)) {
		return fmt.Errorf("table: page with %d records (%d bytes) does not fit in %d-byte page",
			len(p.Keys), pageHeaderSize+p.UsedBytes(), len(buf))
	}
	if len(p.Keys) != len(p.Bodies) {
		return fmt.Errorf("table: page has %d keys but %d bodies", len(p.Keys), len(p.Bodies))
	}
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[0:], uint64(p.TS))
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(p.Keys)))
	binary.LittleEndian.PutUint16(buf[10:], uint16(p.UsedBytes()))
	off := pageHeaderSize
	for i, k := range p.Keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(len(p.Bodies[i])))
		copy(buf[off+recHeaderSize:], p.Bodies[i])
		off += recHeaderSize + len(p.Bodies[i])
	}
	return nil
}

// DecodePage parses a page image. Bodies alias buf.
func DecodePage(buf []byte) (*Page, error) {
	ts, n, err := pageHeader(buf)
	if err != nil {
		return nil, err
	}
	p := &Page{TS: ts, Keys: make([]uint64, 0, n), Bodies: make([][]byte, 0, n)}
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		key, body, next := pageRecord(buf, off)
		if next < 0 {
			return nil, fmt.Errorf("table: truncated record %d of %d", i, n)
		}
		p.Keys = append(p.Keys, key)
		p.Bodies = append(p.Bodies, body)
		off = next
	}
	return p, nil
}

// findInPage walks a page image's records in place up to key and returns
// the row stored under key, if any, with the page timestamp either way:
// what DecodePage and find give for one key, with no allocation. The body
// aliases buf.
func findInPage(buf []byte, key uint64) (row Row, found bool, err error) {
	ts, n, err := pageHeader(buf)
	if err != nil {
		return Row{}, false, err
	}
	row = Row{Key: key, PageTS: ts}
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		k, body, next := pageRecord(buf, off)
		if next < 0 {
			return Row{}, false, fmt.Errorf("table: truncated record %d of %d", i, n)
		}
		if k >= key {
			if k == key {
				row.Body, found = body, true
			}
			break
		}
		off = next
	}
	return row, found, nil
}

// pageHeader checks a page image's header and returns its timestamp and
// record count.
func pageHeader(buf []byte) (ts int64, n int, err error) {
	if len(buf) < pageHeaderSize {
		return 0, 0, fmt.Errorf("table: short page: %d bytes", len(buf))
	}
	used := int(binary.LittleEndian.Uint16(buf[10:]))
	if pageHeaderSize+used > len(buf) {
		return 0, 0, fmt.Errorf("table: page used bytes %d exceed page size %d", used, len(buf))
	}
	return int64(binary.LittleEndian.Uint64(buf[0:])), int(binary.LittleEndian.Uint16(buf[8:])), nil
}

// pageRecord reads the record whose header starts at off: its key, its
// body (aliasing buf) and the offset of the next record, which is -1 if
// the end of buf cuts the record off.
func pageRecord(buf []byte, off int) (key uint64, body []byte, next int) {
	if off+recHeaderSize > len(buf) {
		return 0, nil, -1
	}
	key = binary.LittleEndian.Uint64(buf[off:])
	off += recHeaderSize
	next = off + int(binary.LittleEndian.Uint16(buf[off-2:]))
	if next > len(buf) {
		return 0, nil, -1
	}
	return key, buf[off:next:next], next
}

// insertAt places (key, body) at index i, shifting later records.
func (p *Page) insertAt(i int, key uint64, body []byte) {
	p.Keys = append(p.Keys, 0)
	copy(p.Keys[i+1:], p.Keys[i:])
	p.Keys[i] = key
	p.Bodies = append(p.Bodies, nil)
	copy(p.Bodies[i+1:], p.Bodies[i:])
	p.Bodies[i] = body
}

// removeAt deletes the record at index i.
func (p *Page) removeAt(i int) {
	p.Keys = append(p.Keys[:i], p.Keys[i+1:]...)
	p.Bodies = append(p.Bodies[:i], p.Bodies[i+1:]...)
}

// find returns the index of key, or (insertion point, false).
func (p *Page) find(key uint64) (int, bool) {
	lo, hi := 0, len(p.Keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.Keys) && p.Keys[lo] == key
}
