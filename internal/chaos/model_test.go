package chaos

import (
	"strings"
	"testing"
)

// TestOracleRejectsSplitCommit pins the sharpened crash contract: a
// surviving state that holds part of one committed transaction matches no
// admissible journal prefix, while all of it, none of it, and a cut
// between two standalone writes all do.
func TestOracleRejectsSplitCommit(t *testing.T) {
	a, b, c := []byte("a"), []byte("b"), []byte("c")
	build := func() *model {
		m := newModel()
		m.createTable(0, "t", 0, map[uint64][]byte{1: a})
		m.createTable(1, "u", 1, nil)
		m.ack(0, 2, a)
		m.ackCommit([]jop{{slot: 0, key: 3, val: b}, {slot: 1, key: 4, val: b}, {slot: 0, key: 1, val: nil}})
		m.ack(1, 5, c)
		return m
	}
	for _, tc := range []struct {
		name string
		t, u []kv
		want string // substring of the error; "" = accepted
	}{
		{"nothing", []kv{{1, a}}, nil, ""},
		{"before the commit", []kv{{1, a}, {2, a}}, nil, ""},
		{"whole commit", []kv{{2, a}, {3, b}}, []kv{{4, b}}, ""},
		{"everything", []kv{{2, a}, {3, b}}, []kv{{4, b}, {5, c}}, ""},
		{"first write only", []kv{{1, a}, {2, a}, {3, b}}, nil, "splits commit group 1"},
		{"one table's leg only", []kv{{1, a}, {2, a}, {3, b}}, []kv{{4, b}}, "splits commit group 1"},
		{"hole", []kv{{1, a}, {2, a}}, []kv{{5, c}}, "matches NO prefix"},
	} {
		err := build().adoptCrash(map[int][]kv{0: tc.t, 1: tc.u})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// A Sync after the commit raises the floor past it: losing the
	// standalone tail is still fine, losing the commit is not.
	m := build()
	m.floor = 4
	if err := m.adoptCrash(map[int][]kv{0: {{1, a}, {2, a}}, 1: nil}); err == nil || !strings.Contains(err.Error(), "committed updates lost") {
		t.Errorf("synced commit lost: err = %v", err)
	}
}
