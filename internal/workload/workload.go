// Package workload generates the update streams and query traces of the
// paper's evaluation (§4.1, §4.3): synthetic tables of 100-byte records
// with even keys (so odd keys are insertable), uniformly or Zipf
// distributed well-formed updates with random kinds, and a TPC-H-shaped
// range-scan trace for the replay experiments.
package workload

import (
	"math/rand"

	"masm/internal/storage"
	"masm/internal/table"
	"masm/internal/update"
)

// BodySize is the record body size, chosen so an encoded update record
// (19-byte header: timestamp, key, op, length + body) is exactly the
// paper's 100 bytes.
const BodySize = 81

// Body deterministically generates a record body for a key and version.
func Body(key, version uint64, size int) []byte {
	b := make([]byte, size)
	x := key*2654435761 + version*40503 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// LoadSynthetic builds the paper's synthetic table: n records with even
// keys 2, 4, ..., 2n (§4.1).
func LoadSynthetic(vol *storage.Volume, cfg table.Config, n int, bodySize int) (*table.Table, error) {
	keys := make([]uint64, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2
		bodies[i] = Body(keys[i], 0, bodySize)
	}
	return table.Load(vol, cfg, keys, bodies)
}

// UpdateGen produces well-formed updates over a key space.
type UpdateGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	maxKey   uint64
	bodySize int
	n        uint64
}

// NewUniform generates updates uniformly distributed over [1, maxKey]
// with update kinds (insert/delete/modify) chosen at random — the paper's
// synthetic update stream (§4.1).
func NewUniform(seed int64, maxKey uint64, bodySize int) *UpdateGen {
	return &UpdateGen{rng: rand.New(rand.NewSource(seed)), maxKey: maxKey, bodySize: bodySize}
}

// NewZipf generates skewed updates (for the §3.5 skew-handling ablation):
// key popularity follows a Zipf distribution with parameter s.
func NewZipf(seed int64, maxKey uint64, bodySize int, s float64) *UpdateGen {
	rng := rand.New(rand.NewSource(seed))
	return &UpdateGen{
		rng:      rng,
		zipf:     rand.NewZipf(rng, s, 1, maxKey-1),
		maxKey:   maxKey,
		bodySize: bodySize,
	}
}

// Next returns the next update record (without a timestamp; the store
// assigns it at commit).
func (g *UpdateGen) Next() update.Record {
	var key uint64
	if g.zipf != nil {
		key = g.zipf.Uint64() + 1
	} else {
		key = uint64(g.rng.Int63n(int64(g.maxKey))) + 1
	}
	g.n++
	switch g.rng.Intn(3) {
	case 0:
		return update.Record{Key: key, Op: update.Insert, Payload: Body(key, g.n, g.bodySize)}
	case 1:
		return update.Record{Key: key, Op: update.Delete}
	default:
		off := uint16(g.rng.Intn(g.bodySize - 2))
		return update.Record{Key: key, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: off, Value: []byte{byte(g.n), byte(g.n >> 8)}}})}
	}
}

// ModifyOnly returns a generator function producing only field
// modifications (used where inserts/deletes would change table geometry,
// e.g. sustained-rate measurements).
func (g *UpdateGen) ModifyOnly() func(i int64) update.Record {
	return func(i int64) update.Record {
		var key uint64
		if g.zipf != nil {
			key = g.zipf.Uint64() + 1
		} else {
			key = uint64(g.rng.Int63n(int64(g.maxKey))) + 1
		}
		g.n++
		off := uint16(g.rng.Intn(g.bodySize - 2))
		return update.Record{TS: i + 1, Key: key, Op: update.Modify,
			Payload: update.EncodeFields([]update.Field{{Off: off, Value: []byte{byte(g.n)}}})}
	}
}

// RangePicker selects scan ranges of a given size uniformly over the key
// space, mirroring the paper's methodology (§4.1: 10 random ranges for
// scans ≥ 100 MB, 100 ranges for smaller).
type RangePicker struct {
	rng    *rand.Rand
	maxKey uint64
	span   uint64
}

// NewRangePicker picks ranges spanning `span` keys within [1, maxKey].
func NewRangePicker(seed int64, maxKey, span uint64) *RangePicker {
	if span > maxKey {
		span = maxKey
	}
	return &RangePicker{rng: rand.New(rand.NewSource(seed)), maxKey: maxKey, span: span}
}

// Next returns the next [begin, end] range.
func (p *RangePicker) Next() (uint64, uint64) {
	if p.span >= p.maxKey {
		return 1, p.maxKey
	}
	begin := uint64(p.rng.Int63n(int64(p.maxKey-p.span))) + 1
	return begin, begin + p.span - 1
}
