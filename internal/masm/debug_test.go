package masm

import (
	"bytes"
	"testing"

	"masm/internal/update"
)

// TestDebugMigration is a scaffolding test used while developing the
// migration path; it reproduces the random workload and prints the update
// history of the first mismatching key.
func TestDebugMigration(t *testing.T) {
	e := newEnv(t, 3000, smallConfig())
	history := make(map[uint64][]update.Record)
	origApply := func(rec update.Record) {
		e.apply(rec)
		history[rec.Key] = append(history[rec.Key], rec)
	}
	// Reproduce applyRandom(3000) with history capture.
	for i := 0; i < 3000; i++ {
		maxKey := uint64(2 * (len(e.model) + 10))
		key := uint64(e.rng.Int63n(int64(maxKey))) + 1
		var rec update.Record
		switch e.rng.Intn(3) {
		case 0:
			rec = update.Record{Key: key, Op: update.Insert, Payload: body(key+uint64(i), 92)}
		case 1:
			rec = update.Record{Key: key, Op: update.Delete}
		default:
			rec = update.Record{Key: key, Op: update.Modify,
				Payload: update.EncodeFields([]update.Field{{Off: uint16(e.rng.Intn(80)), Value: []byte{byte(i), byte(i >> 8)}}})}
		}
		origApply(rec)
	}
	end, _, err := e.store.Migrate(e.now)
	if err != nil {
		t.Fatal(err)
	}
	e.now = end
	q, err := e.store.NewQuery(e.now, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	got := make(map[uint64][]byte)
	rows, err := collectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got[r.key] = r.body
	}
	for k, v := range e.model {
		gv, ok := got[k]
		if !ok {
			t.Errorf("key %d missing; history:", k)
			for _, h := range history[k] {
				t.Errorf("  ts=%d op=%v payload[:4]=%v", h.TS, h.Op, prefix(h.Payload))
			}
			t.FailNow()
		}
		if !bytes.Equal(gv, v) {
			t.Errorf("key %d mismatch: got %v want %v; history:", k, gv[:8], v[:8])
			for _, h := range history[k] {
				t.Errorf("  ts=%d op=%v payload[:8]=%v", h.TS, h.Op, prefix(h.Payload))
			}
			t.FailNow()
		}
	}
	for k := range got {
		if _, ok := e.model[k]; !ok {
			t.Errorf("extra key %d; history:", k)
			for _, h := range history[k] {
				t.Errorf("  ts=%d op=%v", h.TS, h.Op)
			}
			t.FailNow()
		}
	}
}

func prefix(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}
