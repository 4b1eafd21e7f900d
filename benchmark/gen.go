package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"
)

// Row bodies are self-describing so that a row read anywhere can be checked
// without knowing how it got there:
//
//	[0:8] key  [8:16] version  [16:20] CRC-32C of the other 96 bytes  [20:100] filler(key)
//
// The filler depends on the key alone, so a Modify can replace version and
// CRC (12 bytes at offset 8) without reading the row first.
const (
	bodyLen   = 100
	patchOff  = 8
	patchLen  = 12
	tableName = "t0"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// encodeBody writes the body of (key, ver) into dst[:bodyLen].
func encodeBody(dst []byte, key, ver uint64) []byte {
	dst = dst[:bodyLen]
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	x := key
	for off := 20; off < bodyLen; off += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
	binary.LittleEndian.PutUint32(dst[16:], bodyCRC(dst))
	return dst
}

func bodyCRC(b []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, b[:16]), castagnoli, b[20:bodyLen])
}

// checkBody verifies a returned row's embedded key and CRC and extracts its
// version.
func checkBody(key uint64, b []byte) (ver uint64, ok bool) {
	if len(b) != bodyLen || binary.LittleEndian.Uint64(b) != key ||
		binary.LittleEndian.Uint32(b[16:]) != bodyCRC(b) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[8:]), true
}

// Per-key model state: version<<2 | pending<<1 | present.
const (
	bitPresent = 1
	bitPending = 2
)

// model is what the server must hold. Every key has one writer at a time
// (its owning connection, or set-up before the connections exist), so a
// key's versions are issued in increasing order and its last acknowledged
// state is well defined. Readers on any connection check against it without
// locks: state and since are only ever read state-first and written
// since-first, so a reader that sees an old state with an old since knows
// nothing was acknowledged or begun in between.
type model struct {
	state   []atomic.Uint64
	since   []atomic.Int64 // ack time of state, ns after epoch
	nextVer atomic.Uint64
	epoch   time.Time
	rows    int      // preloaded rows: keys 2,4,...,2*rows
	written []uint64 // keys written during set-up (single-threaded)
}

func newModel(rows int) *model {
	m := &model{
		state: make([]atomic.Uint64, 2*rows+8),
		since: make([]atomic.Int64, 2*rows+8),
		epoch: time.Now(),
		rows:  rows,
	}
	for i := 1; i <= rows; i++ {
		m.state[2*i].Store(bitPresent)
	}
	return m
}

func (m *model) now() int64 { return int64(time.Since(m.epoch)) }

// own moves key to the nearest key that conn may write. Bit 2 of a key names
// its owner, which splits both the preloaded even keys and the absent odd
// keys evenly between the two connections.
func own(key uint64, conn int) uint64 { return key&^4 | uint64(conn)<<2 }

type opKind uint8

const (
	opPut opKind = iota
	opModify
	opDelete
)

// begin marks key as having a write in flight and returns the version the
// write will carry.
func (m *model) begin(key uint64) uint64 {
	m.state[key].Store(m.state[key].Load() | bitPending)
	return m.nextVer.Add(1)
}

// ack records that the write begun on key was acknowledged.
func (m *model) ack(key uint64, kind opKind, ver uint64) {
	old := m.state[key].Load()
	var st uint64
	switch {
	case kind == opPut, kind == opModify && old&bitPresent != 0:
		st = ver<<2 | bitPresent
	case kind == opModify: // modifying an absent row leaves it absent
		st = old &^ bitPending
	}
	m.since[key].Store(m.now())
	m.state[key].Store(st)
}

// apply is begin+ack for set-up, where the write is a library call.
func (m *model) apply(key uint64, kind opKind) uint64 {
	ver := m.begin(key)
	m.ack(key, kind, ver)
	m.written = append(m.written, key)
	return ver
}

// checkRow verifies one returned row (found) or one key a read did not
// return (!found) against the model, for a read that began at start. It
// returns "" when the result is allowed.
func (m *model) checkRow(key uint64, body []byte, found bool, start int64) string {
	var ver uint64
	if found {
		var ok bool
		if ver, ok = checkBody(key, body); !ok {
			return "row fails its embedded key/CRC check"
		}
		if ver > m.nextVer.Load() {
			return "row carries a version never issued"
		}
	}
	if key >= uint64(len(m.state)) {
		return "row outside the keyspace"
	}
	st := m.state[key].Load()
	if st&bitPending != 0 || m.since[key].Load() > start {
		return "" // a write overlapped the read: old or new are both right
	}
	switch {
	case found && st&bitPresent == 0:
		return "row returned for a key whose delete was acknowledged"
	case !found && st&bitPresent != 0:
		return "acknowledged row missing"
	case found && ver != st>>2:
		return "row version differs from the last acknowledged write"
	}
	return ""
}

// present counts the keys the model holds as present, and how many have a
// write in flight (their presence is unknown).
func (m *model) present() (n, unknown int) {
	for k := range m.state {
		st := m.state[k].Load()
		if st&bitPending != 0 {
			unknown++
		} else if st&bitPresent != 0 {
			n++
		}
	}
	return n, unknown
}

// keygen draws keys for one connection.
type keygen struct {
	rng  *rand.Rand
	rows uint64
	zipf *rand.Zipf
	perm uint64 // walk position for distinct transaction keys
}

func newKeygen(seed int64, rows int) *keygen {
	rng := rand.New(rand.NewSource(seed))
	return &keygen{rng: rng, rows: uint64(rows), zipf: rand.NewZipf(rng, 1.1, 1, uint64(rows-1))}
}

// uniform returns a key in [2, 2*rows+1]: even keys are preloaded rows, odd
// keys are rows that do not exist until inserted.
func (g *keygen) uniform() uint64 { return 2 + g.rng.Uint64()%(2*g.rows) }

// hot returns a preloaded key by Zipf rank, with ranks scattered by a
// multiplicative hash so that hot keys are not neighbours.
func (g *keygen) hot() uint64 {
	return 2 * (1 + g.zipf.Uint64()*0x9E3779B97F4A7C15%g.rows)
}

// distinct walks the preloaded keys conn owns in a scattered order that
// repeats only after all of them (about rows/2) were returned, so the
// transactions in flight on one connection never write the same key.
func (g *keygen) distinct(conn int) uint64 {
	n := 2 * (g.rows/4 - 1)
	g.perm++
	i := g.perm * 2654435761 % n
	return 8*(i/2+1) + 4*uint64(conn) + 2*(i%2)
}

// mixKind picks 80% Put, 10% Modify, 10% Delete.
func (g *keygen) mixKind() opKind {
	switch g.rng.Intn(10) {
	case 0:
		return opModify
	case 1:
		return opDelete
	}
	return opPut
}
