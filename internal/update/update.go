// Package update defines well-formed update records and their merge
// semantics (paper §2.1, §3.2).
//
// A well-formed update is one of: insert a record given its key, delete a
// record given its key, or modify named fields of a record given its key.
// Updates carry commit timestamps; queries carry timestamps too, and a
// query sees exactly the updates with smaller timestamps. When several
// updates share a key they merge: modifications combine field-wise, and a
// deletion followed by an insertion becomes a "replace".
package update

import (
	"encoding/binary"
	"fmt"
)

// Op is the kind of an update record.
type Op uint8

const (
	// Insert adds a new record with the given key; Payload is the record
	// body (everything except the key).
	Insert Op = iota + 1
	// Delete removes the record with the given key; Payload is empty.
	Delete
	// Modify overwrites one or more fields; Payload encodes the field
	// list (see Field).
	Modify
	// Replace is a deletion merged with a later insertion of the same key
	// (paper §3.2): semantically "overwrite whole record".
	Replace
)

func (o Op) String() string {
	switch o {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Modify:
		return "modify"
	case Replace:
		return "replace"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Field is one (offset, value) pair of a Modify update: overwrite
// len(Value) bytes of the record body starting at byte Off.
type Field struct {
	Off   uint16
	Value []byte
}

// Record is one update record: (timestamp, key, type, content).
type Record struct {
	TS  int64  // commit timestamp; total order over all updates and queries
	Key uint64 // primary key (row store) or RID (column store)
	Op  Op
	// Payload is the content field: the record body for Insert/Replace,
	// nil for Delete, and an encoded field list for Modify.
	Payload []byte
}

// Fields decodes the field list of a Modify record.
func (r *Record) Fields() ([]Field, error) {
	if r.Op != Modify {
		return nil, fmt.Errorf("update: Fields on %v record", r.Op)
	}
	return decodeFields(r.Payload)
}

// EncodeFields builds a Modify payload from a field list.
func EncodeFields(fields []Field) []byte {
	n := 1
	for _, f := range fields {
		n += 2 + 2 + len(f.Value)
	}
	p := make([]byte, 0, n)
	p = append(p, byte(len(fields)))
	for _, f := range fields {
		var hdr [4]byte
		binary.LittleEndian.PutUint16(hdr[0:], f.Off)
		binary.LittleEndian.PutUint16(hdr[2:], uint16(len(f.Value)))
		p = append(p, hdr[:]...)
		p = append(p, f.Value...)
	}
	return p
}

func decodeFields(p []byte) ([]Field, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("update: empty modify payload")
	}
	n := int(p[0])
	p = p[1:]
	fields := make([]Field, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("update: truncated modify payload")
		}
		off := binary.LittleEndian.Uint16(p[0:])
		vlen := int(binary.LittleEndian.Uint16(p[2:]))
		p = p[4:]
		if len(p) < vlen {
			return nil, fmt.Errorf("update: truncated modify value")
		}
		fields = append(fields, Field{Off: off, Value: p[:vlen:vlen]})
		p = p[vlen:]
	}
	return fields, nil
}

// Less orders records by (key, timestamp): the layout order of the main
// data first, then commit order among updates to the same key.
func Less(a, b *Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.TS < b.TS
}

// Merge combines two updates to the same key, older first, into the single
// update a later query should observe (paper §3.2, Merge_updates):
//
//   - modify ∘ modify  → modify with field-wise union (newer fields win)
//   - insert ∘ modify  → insert with fields applied
//   - insert/replace ∘ delete → delete (or nothing existed: still delete)
//   - delete ∘ insert  → replace
//   - anything ∘ insert (without delete) → the insert wins (re-insert)
//   - anything ∘ delete → delete
//   - anything ∘ replace → replace
//
// The result carries the newer timestamp.
func Merge(older, newer *Record) Record {
	if older.Key != newer.Key {
		panic("update: Merge on different keys")
	}
	if older.TS > newer.TS {
		panic("update: Merge arguments out of timestamp order")
	}
	out := Record{TS: newer.TS, Key: newer.Key}
	switch newer.Op {
	case Delete:
		out.Op = Delete
	case Replace:
		out.Op = Replace
		out.Payload = newer.Payload
	case Insert:
		if older.Op == Delete {
			out.Op = Replace
			out.Payload = newer.Payload
		} else {
			out.Op = Insert
			out.Payload = newer.Payload
		}
	case Modify:
		switch older.Op {
		case Insert, Replace:
			// Apply the fields to the inserted body so the merged record
			// stays a self-contained insert/replace.
			body := append([]byte(nil), older.Payload...)
			PatchFields(body, newer.Payload)
			out.Op = older.Op
			out.Payload = body
		case Modify:
			out.Op = Modify
			out.Payload = mergeModifies(older.Payload, newer.Payload)
		case Delete:
			// Modifying a deleted record: the modify is a no-op against a
			// hole; keep the delete.
			out.Op = Delete
		default:
			out.Op = Modify
			out.Payload = newer.Payload
		}
	default:
		panic(fmt.Sprintf("update: merge with unknown op %v", newer.Op))
	}
	return out
}

// mergeModifies unions two field lists; fields of the newer list win on
// exact-offset collision. (Partial overlaps keep both, applied in order.)
func mergeModifies(older, newer []byte) []byte {
	of, err1 := decodeFields(older)
	nf, err2 := decodeFields(newer)
	if err1 != nil || err2 != nil {
		return newer
	}
	merged := make([]Field, 0, len(of)+len(nf))
	for _, f := range of {
		replaced := false
		for _, g := range nf {
			if g.Off == f.Off && len(g.Value) == len(f.Value) {
				replaced = true
				break
			}
		}
		if !replaced {
			merged = append(merged, f)
		}
	}
	merged = append(merged, nf...)
	return EncodeFields(merged)
}

// PatchFields applies the field list of a Modify payload to body in
// place, walking the encoding without decoding it into Fields. A field
// reaching past the end of body is skipped (an out-of-range modify
// against a shorter record), and a malformed payload changes nothing.
func PatchFields(body, payload []byte) {
	if !fieldsWellFormed(payload) {
		return
	}
	n, p := int(payload[0]), payload[1:]
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint16(p[0:]))
		vlen := int(binary.LittleEndian.Uint16(p[2:]))
		if off+vlen <= len(body) {
			copy(body[off:], p[4:4+vlen])
		}
		p = p[4+vlen:]
	}
}

// fieldsWellFormed reports whether payload decodes as a field list: the
// same checks as decodeFields.
func fieldsWellFormed(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	n, p := int(payload[0]), payload[1:]
	for i := 0; i < n; i++ {
		if len(p) < 4 {
			return false
		}
		vlen := int(binary.LittleEndian.Uint16(p[2:]))
		if len(p) < 4+vlen {
			return false
		}
		p = p[4+vlen:]
	}
	return true
}

// Apply produces the record body visible after applying upd to the current
// body (nil, false means "no such record"). It returns the new body and
// whether the record exists afterwards.
func Apply(body []byte, exists bool, upd *Record) ([]byte, bool) {
	switch upd.Op {
	case Insert, Replace:
		return append([]byte(nil), upd.Payload...), true
	case Delete:
		return nil, false
	case Modify:
		if !exists {
			return nil, false
		}
		out := append([]byte(nil), body...)
		PatchFields(out, upd.Payload)
		return out, true
	default:
		panic(fmt.Sprintf("update: apply unknown op %v", upd.Op))
	}
}
