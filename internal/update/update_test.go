package update

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{TS: 1, Key: 42, Op: Insert, Payload: []byte("hello world")},
		{TS: 2, Key: 0, Op: Delete},
		{TS: 3, Key: ^uint64(0), Op: Modify, Payload: EncodeFields([]Field{{Off: 4, Value: []byte("xy")}})},
		{TS: 4, Key: 7, Op: Replace, Payload: bytes.Repeat([]byte{0xee}, 92)},
	}
	var buf []byte
	for i := range recs {
		buf = AppendEncode(buf, &recs[i])
	}
	for i := range recs {
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		buf = buf[n:]
		if got.TS != recs[i].TS || got.Key != recs[i].Key || got.Op != recs[i].Op ||
			!bytes.Equal(got.Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got, recs[i])
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d leftover bytes", len(buf))
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	r := Record{TS: 9, Key: 10, Op: Insert, Payload: make([]byte, 33)}
	enc := AppendEncode(nil, &r)
	if len(enc) != EncodedSize(&r) {
		t.Fatalf("EncodedSize = %d, encoding = %d", EncodedSize(&r), len(enc))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	r := Record{TS: 1, Key: 2, Op: Insert, Payload: []byte("abcdef")}
	enc := AppendEncode(nil, &r)
	if _, _, err := Decode(enc[:len(enc)-2]); err == nil {
		t.Fatal("short payload accepted")
	}
	enc[16] = 99 // bad op
	if _, _, err := Decode(enc); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestDecodeQuick(t *testing.T) {
	// Property: any encodable record round-trips.
	f := func(ts int64, key uint64, opSel uint8, payload []byte) bool {
		op := Op(opSel%4) + Insert
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		if op == Delete {
			payload = nil
		}
		r := Record{TS: ts, Key: key, Op: op, Payload: payload}
		got, n, err := Decode(AppendEncode(nil, &r))
		return err == nil && n == EncodedSize(&r) && got.TS == ts && got.Key == key &&
			got.Op == op && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDeleteInsertIsReplace(t *testing.T) {
	del := Record{TS: 1, Key: 5, Op: Delete}
	ins := Record{TS: 2, Key: 5, Op: Insert, Payload: []byte("new")}
	m := Merge(&del, &ins)
	if m.Op != Replace || !bytes.Equal(m.Payload, []byte("new")) || m.TS != 2 {
		t.Fatalf("delete+insert = %+v, want replace(new)@2", m)
	}
}

func TestMergeModifies(t *testing.T) {
	m1 := Record{TS: 1, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 0, Value: []byte("AA")}})}
	m2 := Record{TS: 2, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 4, Value: []byte("BB")}})}
	m := Merge(&m1, &m2)
	if m.Op != Modify {
		t.Fatalf("modify+modify op = %v", m.Op)
	}
	body := []byte("xxxxyyyy")
	out, ok := Apply(body, true, &m)
	if !ok || string(out) != "AAxxBByy" {
		t.Fatalf("merged modify applied = %q, want AAxxBByy", out)
	}
}

func TestMergeModifyOverridesSameField(t *testing.T) {
	m1 := Record{TS: 1, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 2, Value: []byte("AA")}})}
	m2 := Record{TS: 2, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 2, Value: []byte("BB")}})}
	m := Merge(&m1, &m2)
	out, ok := Apply([]byte("zzzzzz"), true, &m)
	if !ok || string(out) != "zzBBzz" {
		t.Fatalf("same-field merge applied = %q, want zzBBzz", out)
	}
}

func TestMergeInsertThenModify(t *testing.T) {
	ins := Record{TS: 1, Key: 5, Op: Insert, Payload: []byte("abcdef")}
	mod := Record{TS: 2, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 1, Value: []byte("XY")}})}
	m := Merge(&ins, &mod)
	if m.Op != Insert || string(m.Payload) != "aXYdef" {
		t.Fatalf("insert+modify = %v %q, want insert aXYdef", m.Op, m.Payload)
	}
}

func TestMergeAnythingThenDelete(t *testing.T) {
	for _, older := range []Record{
		{TS: 1, Key: 5, Op: Insert, Payload: []byte("x")},
		{TS: 1, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 0, Value: []byte("y")}})},
		{TS: 1, Key: 5, Op: Replace, Payload: []byte("z")},
	} {
		del := Record{TS: 2, Key: 5, Op: Delete}
		if m := Merge(&older, &del); m.Op != Delete {
			t.Fatalf("%v+delete = %v, want delete", older.Op, m.Op)
		}
	}
}

func TestMergeDeleteThenModifyStaysDelete(t *testing.T) {
	del := Record{TS: 1, Key: 5, Op: Delete}
	mod := Record{TS: 2, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 0, Value: []byte("y")}})}
	if m := Merge(&del, &mod); m.Op != Delete {
		t.Fatalf("delete+modify = %v, want delete", m.Op)
	}
}

func TestMergeEquivalentToSequentialApply(t *testing.T) {
	// Property: for random update pairs, Apply(Apply(base, a), b) ==
	// Apply(base, Merge(a, b)).
	f := func(seed uint8, baseBytes [8]byte) bool {
		base := baseBytes[:]
		ops := []Op{Insert, Delete, Modify, Replace}
		mk := func(ts int64, sel uint8) Record {
			op := ops[sel%4]
			switch op {
			case Insert, Replace:
				return Record{TS: ts, Key: 1, Op: op, Payload: []byte{sel, sel + 1, sel + 2, sel + 3, 0, 0, 0, 0}}
			case Modify:
				return Record{TS: ts, Key: 1, Op: Modify,
					Payload: EncodeFields([]Field{{Off: uint16(sel % 4), Value: []byte{sel ^ 0x5a}}})}
			default:
				return Record{TS: ts, Key: 1, Op: Delete}
			}
		}
		a := mk(1, seed)
		b := mk(2, seed/4)
		seq, seqOK := Apply(base, true, &a)
		seq, seqOK = Apply(seq, seqOK, &b)
		m := Merge(&a, &b)
		got, gotOK := Apply(base, true, &m)
		if seqOK != gotOK {
			return false
		}
		return !seqOK || bytes.Equal(seq, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLessOrder(t *testing.T) {
	a := Record{Key: 1, TS: 5}
	b := Record{Key: 2, TS: 1}
	c := Record{Key: 2, TS: 2}
	if !Less(&a, &b) || !Less(&b, &c) || Less(&c, &b) {
		t.Fatal("Less ordering broken")
	}
}

func TestFieldsDecodeErrors(t *testing.T) {
	r := Record{Op: Modify, Payload: []byte{2, 0}}
	if _, err := r.Fields(); err == nil {
		t.Fatal("truncated field list accepted")
	}
	r2 := Record{Op: Insert}
	if _, err := r2.Fields(); err == nil {
		t.Fatal("Fields on insert accepted")
	}
}

func TestApplyModifyMissingRecord(t *testing.T) {
	mod := Record{TS: 1, Key: 5, Op: Modify, Payload: EncodeFields([]Field{{Off: 0, Value: []byte("y")}})}
	if _, ok := Apply(nil, false, &mod); ok {
		t.Fatal("modify of missing record should not create it")
	}
}

// TestQuickPatchFieldsMatchesDecodedFields: walking a payload in place
// patches exactly what its decoded field list would, skipping fields past
// the body's end, and a payload that does not decode (a random or cut one)
// changes nothing.
func TestQuickPatchFieldsMatchesDecodedFields(t *testing.T) {
	f := func(offs []uint8, vals [][]byte, cut uint8, junk []byte) bool {
		var fields []Field
		for i, off := range offs {
			if i < len(vals) {
				fields = append(fields, Field{Off: uint16(off), Value: vals[i]})
			}
		}
		enc := EncodeFields(fields)
		for _, payload := range [][]byte{enc, enc[:int(cut)%(1+len(enc))], junk} {
			body := bytes.Repeat([]byte{0xaa}, 120)
			want := append([]byte(nil), body...)
			if decoded, err := decodeFields(payload); err == nil {
				for _, f := range decoded {
					if end := int(f.Off) + len(f.Value); end <= len(want) {
						copy(want[f.Off:end], f.Value)
					}
				}
			}
			PatchFields(body, payload)
			if !bytes.Equal(body, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
