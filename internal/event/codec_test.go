package event

import (
	"encoding/hex"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func fullEvent() Event {
	return New("gps-fix", 42).WithSource("taxi-7")
}

func TestJSONRoundTrip(t *testing.T) {
	in := fullEvent()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"type":"gps-fix","time":42,"source":"taxi-7"}`; got != want {
		t.Errorf("encoding = %s, want %s", got, want)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Errorf("round trip lost data:\n in = %v\nout = %v", in, out)
	}
}

func TestJSONRoundTripMinimal(t *testing.T) {
	in := New("a", 1)
	data, _ := json.Marshal(in)
	// No source → compact encoding.
	if s := string(data); strings.Contains(s, "source") {
		t.Errorf("minimal event has spurious fields: %s", s)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Error("minimal round trip failed")
	}
}

// TestUnmarshalIgnoresRetiredKeys decodes the event encoding of checkpoints
// written when events still carried wall time and attributes: those keys
// are skipped and the type, time and source survive.
func TestUnmarshalIgnoresRetiredKeys(t *testing.T) {
	in := `{"type":"gps-fix","time":42,"wall":"2008-02-02T15:36:08Z","source":"taxi-7",` +
		`"attrs":{"x":{"kind":"int","int":3},"road":{"kind":"string","string":"ring-2"}}}`
	var out Event
	if err := json.Unmarshal([]byte(in), &out); err != nil {
		t.Fatal(err)
	}
	if want := fullEvent(); out != want {
		t.Errorf("decoded %v, want %v", out, want)
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cases := []string{
		`{}`, // missing type
		`{"time":3,"attrs":{"k":{"kind":"int","int":1}}}`, // missing type
		`{"type":"a","time":"x"}`,                         // mistyped time
		`not json`,
	}
	for _, c := range cases {
		var e Event
		if err := json.Unmarshal([]byte(c), &e); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []Event{
		fullEvent(),
		New("a", 1),
		New("b", -7).WithSource("s"),
		New("d", 1<<40),
	}
	for _, in := range cases {
		buf := AppendBinary(nil, in)
		out, n, err := decodeBinary(buf, nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("%v: consumed %d of %d bytes", in, n, len(buf))
		}
		if in != out {
			t.Errorf("binary round trip lost data:\n in = %v\nout = %v", in, out)
		}
	}
}

// TestBinaryEncodingUnchanged pins the wire bytes of AppendBinary and
// AppendBinaryBatch, captured when events still carried wall time and
// attributes: an event without them encodes exactly as it always did, so
// old and new peers interoperate.
func TestBinaryEncodingUnchanged(t *testing.T) {
	long := Type(strings.Repeat("t", 200)) // a two-byte uvarint length
	cases := []struct {
		e    Event
		want string
	}{
		{New("a", 1), "00016102"},
		{fullEvent(), "01076770732d6669785406746178692d37"},
		{New("b", -7).WithSource("s"), "0101620d0173"},
		{New(long, 1<<40).WithSource("src"), "01c801" + strings.Repeat("74", 200) + "808080808040" + "03737263"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(AppendBinary(nil, c.e)); got != c.want {
			t.Errorf("AppendBinary(%v) = %s, want %s", c.e, got, c.want)
		}
	}
	batch := []Event{New("a", 1), New("c", 3).WithSource("s")}
	if got, want := hex.EncodeToString(AppendBinaryBatch(nil, batch)), "0200016102010163060173"; got != want {
		t.Errorf("AppendBinaryBatch = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(AppendBinaryBatch(nil, nil)), "00"; got != want {
		t.Errorf("empty AppendBinaryBatch = %s, want %s", got, want)
	}
}

// TestDecodeBinaryRefusesRetiredFlags feeds the bytes an older encoder wrote
// for events with wall time (flag 0x02) or attributes (flag 0x04). Each is
// refused as unknown flags, alone and inside a batch; the inputs are capped
// at their length, so an over-read would panic.
func TestDecodeBinaryRefusesRetiredFlags(t *testing.T) {
	for _, h := range []string{
		"02016102a48bb09909",                             // a@1, wall 1234567890 ns
		"0401610201016b010e",                             // a@1, attrs {k: 7}
		"07076770732d6669785406746178692d370a0101780106", // source, wall and attrs
		"0201610202",                                     // wall flag, truncated wall
		"040161",                                         // attrs flag, truncated
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := decodeBinary(b[:len(b):len(b)], nil)
		if err == nil || !strings.Contains(err.Error(), "unknown binary flags") {
			t.Errorf("%s: decodeBinary = (%d, %v), want an unknown-flags error", h, n, err)
		}
		batch := append([]byte{1}, b...)
		if _, err := DecodeBinaryBatch(nil, batch[:len(batch):len(batch)]); err == nil || !strings.Contains(err.Error(), "unknown binary flags") {
			t.Errorf("%s: DecodeBinaryBatch error = %v, want an unknown-flags error", h, err)
		}
	}
}

// TestBinaryJSONEquivalence is the codec equivalence gate: an event must
// survive either encoding identically.
func TestBinaryJSONEquivalence(t *testing.T) {
	cases := []Event{
		fullEvent(),
		New("a", 1),
		New("jump", -99).WithSource("tenant-a/stream-1"),
	}
	for _, in := range cases {
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Event
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBinary, n, err := decodeBinary(AppendBinary(nil, in), nil)
		if err != nil || n == 0 {
			t.Fatalf("%v: binary decode: %v", in, err)
		}
		if viaJSON != viaBinary || in != viaJSON {
			t.Errorf("codecs disagree:\n in     = %v\n json   = %v\n binary = %v", in, viaJSON, viaBinary)
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
		if evs[i] != got[i] {
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
		if _, _, err := decodeBinary(c, nil); err == nil {
			t.Errorf("input %x accepted", c)
		}
	}
}

// TestBinaryBatchInternedAllocs pins DecodeBinaryBatchWith against the plain
// batch decoder: with a name table it returns the same events and errors,
// and a batch whose names are all in the table decodes without allocating.
func TestBinaryBatchInternedAllocs(t *testing.T) {
	table := map[string]string{}
	intern := func(b []byte) string {
		if s, ok := table[string(b)]; ok {
			return s
		}
		s := string(b)
		table[s] = s
		return s
	}
	evs := []Event{New("a", 1).WithSource("s1"), New("b", 2).WithSource("s1"), New("c", 3)}
	buf := AppendBinaryBatch(nil, evs)
	want, err := DecodeBinaryBatch(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryBatchWith(nil, buf, intern)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("interned batch = %v, %v; plain %v", got, err, want)
	}
	scratch := make([]Event, 0, len(evs))
	if allocs := testing.AllocsPerRun(100, func() {
		if got, err := DecodeBinaryBatchWith(scratch[:0], buf, intern); err != nil || !slices.Equal(got, want) {
			t.Fatalf("interned batch = %v, %v; plain %v", got, err, want)
		}
	}); allocs != 0 {
		t.Errorf("decoding a batch of known names allocates %v times, want 0", allocs)
	}
	for _, bad := range [][]byte{append(buf, 0xff), buf[:len(buf)-1], {1, 0x00, 0x00}} {
		_, perr := DecodeBinaryBatch(nil, bad)
		_, ierr := DecodeBinaryBatchWith(nil, bad, intern)
		if perr == nil || ierr == nil || perr.Error() != ierr.Error() {
			t.Errorf("%x: plain error %v, interned error %v", bad, perr, ierr)
		}
	}
}
