package masm_test

import (
	"bytes"
	"fmt"
	"testing"

	"masm"
	"masm/internal/chaos"
	"masm/internal/storage"
)

// powerCutBody is the 100-byte body of table-local insert k.
func powerCutBody(k uint64) []byte {
	return []byte(fmt.Sprintf("%0100d", k))
}

// TestPowerCutKeepsEachTablePrefix: log appends never force, so un-Synced
// batches of tables written round-robin pile up in the OS cache, and a
// power cut keeps an arbitrary, possibly torn, subset of them. The log
// bounds that unforced span below replay's torn-batch span, so every such
// cut still reopens — as a torn tail, not as mid-log corruption — and each
// table holds a prefix of its inserts.
func TestPowerCutKeepsEachTablePrefix(t *testing.T) {
	const tables, inserts = 4, 16000
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			var wal *chaos.FaultBackend
			cfg := masm.DefaultConfig()
			cfg.CacheBytes = 64 << 20 // no table's buffer fills: no flush forces the log
			eng, err := masm.OpenEngineDir(dir, masm.EngineDirOptions{Config: cfg,
				WrapBackend: func(name string, be storage.Backend) storage.Backend {
					if name != "wal.log" {
						return be
					}
					wal = chaos.NewFaultBackend(be, name, seed)
					return wal
				}})
			if err != nil {
				t.Fatal(err)
			}
			tbls := make([]*masm.Table, tables)
			for i := range tbls {
				if tbls[i], err = eng.CreateTable(fmt.Sprintf("t%d", i), masm.TableOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < inserts; i++ {
				k := uint64(i/tables + 1)
				if err := tbls[i%tables].Insert(k, powerCutBody(k)); err != nil {
					t.Fatal(err)
				}
			}
			for i, tbl := range tbls {
				if runs := tbl.Stats().Runs; runs != 0 {
					t.Fatalf("table t%d flushed %d runs: a flush forces the log, so the cut would not reach the bound", i, runs)
				}
			}
			wal.SetPlan(chaos.Plan{KeepProb: 0.5, TornWrites: true})
			wal.CrashNow()
			if err := eng.HardStop(); err != nil {
				t.Fatal(err)
			}

			eng2, err := masm.OpenEngineDir(dir, masm.EngineDirOptions{})
			if err != nil {
				t.Fatalf("reopen after a power cut: %v", err)
			}
			defer eng2.Close()
			for i := 0; i < tables; i++ {
				tbl, err := eng2.OpenTable(fmt.Sprintf("t%d", i))
				if err != nil {
					t.Fatal(err)
				}
				next := uint64(1)
				err = tbl.Scan(0, ^uint64(0), func(k uint64, body []byte) bool {
					if k != next || !bytes.Equal(body, powerCutBody(k)) {
						t.Fatalf("table t%d: key %d (%q) where the prefix continues at %d", i, k, body, next)
					}
					next++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
