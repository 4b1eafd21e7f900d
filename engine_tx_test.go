package masm_test

import (
	"errors"
	"testing"

	"masm"
)

// TestCommitConflictIsErrWriteConflict: a caller outside the module can
// tell a lost first-committer-wins race from any other failure. Two
// transactions write one key; the loser's Commit matches
// masm.ErrWriteConflict, and the winner's write is what the table holds.
func TestCommitConflictIsErrWriteConflict(t *testing.T) {
	eng, err := masm.NewEngine(masm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("t", masm.TableOptions{Keys: []uint64{1}, Bodies: [][]byte{[]byte("base")}})
	if err != nil {
		t.Fatal(err)
	}
	begin := func(body string) *masm.EngineTx {
		t.Helper()
		tx, err := eng.BeginTx(masm.TxSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", 1, []byte(body)); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	winner, loser := begin("winner"), begin("loser")
	if err := winner.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := loser.Commit(); !errors.Is(err, masm.ErrWriteConflict) {
		t.Fatalf("second committer: %v, want masm.ErrWriteConflict", err)
	}
	body, ok, err := tbl.Get(1)
	if err != nil || !ok || string(body) != "winner" {
		t.Fatalf("Get(1) = %q, %v, %v; want the winner's write", body, ok, err)
	}
}
