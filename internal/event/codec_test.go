package event

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func fullEvent() Event {
	return New("gps-fix", 42).
		WithSource("taxi-7").
		WithWall(time.Date(2008, 2, 2, 15, 36, 8, 0, time.UTC)).
		WithAttr("x", Int(3)).
		WithAttr("speed", Float(12.5)).
		WithAttr("road", String("ring-2")).
		WithAttr("occupied", Bool(true))
}

func TestJSONRoundTrip(t *testing.T) {
	in := fullEvent()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Errorf("round trip lost data:\n in = %v\nout = %v", in, out)
	}
	if !in.Wall.Equal(out.Wall) {
		t.Errorf("wall time lost: %v vs %v", in.Wall, out.Wall)
	}
}

func TestJSONRoundTripMinimal(t *testing.T) {
	in := New("a", 1)
	data, _ := json.Marshal(in)
	// No attrs, no wall, no source → compact encoding.
	s := string(data)
	if strings.Contains(s, "attrs") || strings.Contains(s, "wall") || strings.Contains(s, "source") {
		t.Errorf("minimal event has spurious fields: %s", s)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Error("minimal round trip failed")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cases := []string{
		`{}`, // missing type
		`{"type":"a","attrs":{"k":{"kind":"wat"}}}`,   // unknown kind
		`{"type":"a","attrs":{"k":{"kind":"int"}}}`,   // missing payload
		`{"type":"a","attrs":{"k":{"kind":"float"}}}`, // missing payload
		`{"type":"a","attrs":{"k":{"kind":"string"}}}`,
		`{"type":"a","attrs":{"k":{"kind":"bool"}}}`,
		`not json`,
	}
	for _, c := range cases {
		var e Event
		if err := json.Unmarshal([]byte(c), &e); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestMarshalInvalidAttr(t *testing.T) {
	e := New("a", 1)
	e.Attrs = map[string]Value{"bad": {}}
	if _, err := json.Marshal(e); err == nil {
		t.Error("invalid attribute kind accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []Event{
		fullEvent(),
		New("a", 1),
		New("b", -7).WithSource("s"),
		New("c", 0).WithAttr("k", String("")),
		New("d", 1<<40).WithWall(time.Unix(0, 1234567890)),
	}
	for _, in := range cases {
		buf := AppendBinary(nil, in)
		out, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("%v: consumed %d of %d bytes", in, n, len(buf))
		}
		if !in.Equal(out) {
			t.Errorf("binary round trip lost data:\n in = %v\nout = %v", in, out)
		}
		if !in.Wall.IsZero() && !in.Wall.Equal(out.Wall) {
			t.Errorf("%v: wall time lost: %v vs %v", in, in.Wall, out.Wall)
		}
	}
}

// TestBinaryJSONEquivalence is the codec equivalence gate: any event must
// survive either encoding identically — JSON→binary→JSON and
// binary→JSON→binary both end where they started.
func TestBinaryJSONEquivalence(t *testing.T) {
	cases := []Event{
		fullEvent(),
		New("a", 1),
		New("jump", -99).WithSource("tenant-a/stream-1").WithAttr("n", Int(-5)),
		New("w", 3).WithWall(time.Unix(77, 88).UTC()).WithAttr("f", Float(-0.25)).WithAttr("b", Bool(false)),
	}
	for _, in := range cases {
		// Through JSON first.
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Event
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		// Through binary first.
		viaBinary, n, err := DecodeBinary(AppendBinary(nil, in))
		if err != nil || n == 0 {
			t.Fatalf("%v: binary decode: %v", in, err)
		}
		if !viaJSON.Equal(viaBinary) {
			t.Errorf("codecs disagree:\n json   = %v\n binary = %v", viaJSON, viaBinary)
		}
		if !viaJSON.Wall.Equal(viaBinary.Wall) {
			t.Errorf("codecs disagree on wall time: %v vs %v", viaJSON.Wall, viaBinary.Wall)
		}
		// And the binary form is deterministic: re-encoding the decoded
		// event reproduces the same bytes (attributes encode sorted).
		b1 := AppendBinary(nil, in)
		b2 := AppendBinary(nil, viaBinary)
		if !bytes.Equal(b1, b2) {
			t.Errorf("binary encoding not canonical:\n %x\n %x", b1, b2)
		}
	}
}

func TestBinaryBatch(t *testing.T) {
	evs := []Event{fullEvent(), New("b", 2), New("c", 3).WithSource("s")}
	buf := AppendBinaryBatch(nil, evs)
	got, err := DecodeBinaryBatch(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if !evs[i].Equal(got[i]) {
			t.Errorf("event %d differs", i)
		}
	}
	// Trailing garbage after the batch must be rejected.
	if _, err := DecodeBinaryBatch(nil, append(buf, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A count the payload cannot carry must be rejected before allocating.
	if _, err := DecodeBinaryBatch(nil, []byte{0xff, 0xff, 0xff, 0xff, 0x07}); err == nil {
		t.Error("oversized batch count accepted")
	}
}

func TestDecodeBinaryRejectsBadInput(t *testing.T) {
	good := AppendBinary(nil, fullEvent())
	cases := [][]byte{
		nil,
		{0xf8},             // unknown flags
		good[:1],           // flags only
		good[:len(good)-2], // torn tail
		{0x00, 0x00},       // empty type
	}
	for _, c := range cases {
		if _, _, err := DecodeBinary(c); err == nil {
			t.Errorf("input %x accepted", c)
		}
	}
}
