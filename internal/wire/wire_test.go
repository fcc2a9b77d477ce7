package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"patterndp/internal/event"
)

// decodePong decodes a Pong payload. No peer reads one (a Pong only proves
// liveness), so the decoder lives with the tests that pin the encoding.
func decodePong(b []byte) (Pong, error) {
	var p Pong
	d := decoder{b: b}
	p.Nonce = d.uvarint()
	return p, d.finish("pong")
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello payload")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, THello, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TAck, nil); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != THello || !bytes.Equal(f.Payload, payload) {
		t.Errorf("frame 1: %v %q", f.Type, f.Payload)
	}
	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TAck || len(f.Payload) != 0 {
		t.Errorf("frame 2: %v %q", f.Type, f.Payload)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want clean EOF, got %v", err)
	}
}

// TestAppendIngestFrameMatchesAppendFrame pins the in-place Ingest encoder to
// the two-step form it replaces: identical bytes on the wire, appended behind
// whatever dst already holds.
func TestAppendIngestFrameMatchesAppendFrame(t *testing.T) {
	full := Ingest{Req: 300, Events: []event.Event{
		event.New("a", 1).WithSource("s1"),
		event.New("a longer type name", 1<<40).WithSource("s2"),
		event.New("", -5),
	}}
	for _, prefix := range [][]byte{nil, []byte("earlier frame")} {
		for _, in := range []Ingest{full, {Req: 1}} {
			want := AppendFrame(bytes.Clone(prefix), TIngest, AppendIngest(nil, in))
			if got := AppendIngestFrame(bytes.Clone(prefix), in); !bytes.Equal(got, want) {
				t.Errorf("AppendIngestFrame(%d events) = %x, want %x", len(in.Events), got, want)
			}
		}
	}
}

// TestAppendAckFrameMatchesAppendFrame is the same pin for the in-place Ack
// encoder, which the session writer appends behind a flush's answers.
func TestAppendAckFrameMatchesAppendFrame(t *testing.T) {
	for _, prefix := range [][]byte{nil, []byte("earlier frame")} {
		for _, a := range []Ack{{}, {Req: 1, N: 64}, {Req: 1 << 40, N: 300}} {
			want := AppendFrame(bytes.Clone(prefix), TAck, AppendAck(nil, a))
			if got := AppendAckFrame(bytes.Clone(prefix), a); !bytes.Equal(got, want) {
				t.Errorf("AppendAckFrame(%+v) = %x, want %x", a, got, want)
			}
		}
	}
}

// countingReader counts the Read calls that reach the transport.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderStreams feeds the same frame sequence — empty, small, exactly
// the read-ahead, and larger than it — to the Reader through transports that
// chunk it differently. However the bytes arrive, Next must return exactly
// the frames that were sent — each payload intact when it is returned, no
// matter how the buffer was compacted or grown to assemble it — then a clean
// io.EOF.
func TestReaderStreams(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (BufferSize+4096)/16)
	type sent struct {
		t       Type
		payload []byte
	}
	frames := []sent{
		{THello, []byte("hello")},
		{TAck, nil},
		{TIngest, big}, // larger than the read-ahead: the buffer must grow
		{TAnswer, []byte("after the big one")},
		{THandoffChunk, big[:BufferSize-HeaderSize]}, // fills the read-ahead exactly
		{TGoodbye, []byte("bye")},
	}
	for i := 0; i < 200; i++ {
		frames = append(frames, sent{TAnswer, big[i : i+40+i%7]})
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f.t, f.payload)
	}
	transports := map[string]func() io.Reader{
		"whole":        func() io.Reader { return bytes.NewReader(stream) },
		"one-byte":     func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half-reads":   func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"data-and-eof": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	}
	for name, open := range transports {
		t.Run(name, func(t *testing.T) {
			r := NewReader(open())
			for i, want := range frames {
				f, err := r.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if f.Type != want.t || !bytes.Equal(f.Payload, want.payload) {
					t.Fatalf("frame %d: got %v with %d payload bytes, want %v with %d",
						i, f.Type, len(f.Payload), want.t, len(want.payload))
				}
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF", err)
			}
			if r.end != r.pos {
				t.Errorf("%d bytes buffered at EOF", r.end-r.pos)
			}
		})
	}
}

// TestReaderCoalescesReads is the point of the read-ahead: frames the peer
// has already sent cost one transport read between them, not two each.
func TestReaderCoalescesReads(t *testing.T) {
	const n = 5000
	var stream []byte
	var first int
	for i := 0; i < n; i++ {
		stream = AppendFrame(stream, TAnswer, AppendAnswer(nil, Answer{Sub: 1, Seq: uint64(i + 1), Stream: "s", Query: "q"}))
		if i == 0 {
			first = len(stream)
		}
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	r := NewReader(cr)
	for i := 0; i < n; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 && r.end-r.pos != initialBuffer-first {
			t.Errorf("after the first frame %d bytes are buffered, want the rest of the first read, %d", r.end-r.pos, initialBuffer-first)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// One small read before the buffer has grown, then one per BufferSize
	// of stream, plus the one that finds EOF.
	if max := len(stream)/BufferSize + 3; cr.reads > max {
		t.Errorf("%d frames (%d bytes) took %d reads, want at most %d", n, len(stream), cr.reads, max)
	}
}

// TestReaderEOFOnlyAtFrameBoundary cuts a two-frame stream at every offset:
// the cut is clean (io.EOF) only at a frame boundary and io.ErrUnexpectedEOF
// anywhere inside a frame, after every whole frame before it was returned.
func TestReaderEOFOnlyAtFrameBoundary(t *testing.T) {
	first := AppendFrame(nil, TIngest, []byte("abc"))
	stream := AppendFrame(bytes.Clone(first), TAck, AppendAck(nil, Ack{Req: 1, N: 3}))
	for cut := 0; cut <= len(stream); cut++ {
		r := NewReader(iotest.OneByteReader(bytes.NewReader(stream[:cut])))
		whole := 0
		var err error
		for err == nil {
			if _, err = r.Next(); err == nil {
				whole++
			}
		}
		wantWhole, wantErr := 0, io.ErrUnexpectedEOF
		if cut >= len(first) {
			wantWhole = 1
		}
		if cut == len(stream) {
			wantWhole = 2
		}
		if cut == 0 || cut == len(first) || cut == len(stream) {
			wantErr = io.EOF
		}
		if whole != wantWhole || err != wantErr {
			t.Errorf("cut at %d: %d frames then %v, want %d then %v", cut, whole, err, wantWhole, wantErr)
		}
	}
}

// TestReaderTransportError checks a transport failure is neither swallowed
// nor allowed to cost the frames already buffered: it is reported once they
// run out.
func TestReaderTransportError(t *testing.T) {
	frame := AppendFrame(nil, TPing, AppendPing(nil, Ping{Nonce: 1}))
	r := NewReader(iotest.TimeoutReader(bytes.NewReader(append(bytes.Clone(frame), frame[:5]...))))
	if _, err := r.Next(); err != nil {
		t.Fatalf("buffered frame lost to a later transport error: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("want the transport's timeout, got %v", err)
	}
}

// chunkReader hands out its chunks one per Read, then io.EOF.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestReaderReady pins what the read loops arm their idle deadline on: Ready
// is true exactly when the following Next does not touch the transport. A
// three-frame stream (the last with a header Next rejects) arrives split in
// two at every offset, so the buffer is left empty, mid-header, mid-payload
// and on a frame boundary.
func TestReaderReady(t *testing.T) {
	stream := AppendFrame(nil, TIngest, []byte("abc"))
	stream = AppendFrame(stream, TAck, AppendAck(nil, Ack{Req: 1, N: 3}))
	bad := AppendFrame(nil, TPing, nil)
	bad[2] = 1 // reserved flags
	stream = append(stream, bad...)
	for cut := 0; cut <= len(stream); cut++ {
		cr := &countingReader{r: &chunkReader{chunks: [][]byte{stream[:cut], stream[cut:]}}}
		r := NewReader(cr)
		for i := 0; ; i++ {
			ready, before := r.Ready(), cr.reads
			_, err := r.Next()
			if read := cr.reads > before; ready == read {
				t.Errorf("cut at %d, call %d: Ready() = %v but Next read the transport: %v", cut, i, ready, read)
			}
			if err != nil {
				break
			}
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, TAnswer, []byte("payload"))

	// Flipped payload byte → CRC mismatch.
	bad := append([]byte(nil), good...)
	bad[HeaderSize] ^= 0xff
	if _, _, err := DecodeFrame(bad); err == nil || err == io.ErrShortBuffer {
		t.Errorf("corrupt payload: %v", err)
	}
	// Wrong version.
	bad = append([]byte(nil), good...)
	bad[0] = Version + 1
	if _, _, err := DecodeFrame(bad); err == nil || err == io.ErrShortBuffer {
		t.Errorf("wrong version: %v", err)
	}
	// Unknown type.
	bad = append([]byte(nil), good...)
	bad[1] = byte(typeCount)
	if _, _, err := DecodeFrame(bad); err == nil || err == io.ErrShortBuffer {
		t.Errorf("unknown type: %v", err)
	}
	// Reserved flags.
	bad = append([]byte(nil), good...)
	bad[2] = 1
	if _, _, err := DecodeFrame(bad); err == nil || err == io.ErrShortBuffer {
		t.Errorf("reserved flags: %v", err)
	}
	// Oversized length.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], MaxPayload+1)
	if _, _, err := DecodeFrame(bad); err == nil || err == io.ErrShortBuffer {
		t.Errorf("oversized length: %v", err)
	}
	// Short prefix asks for more bytes rather than erroring.
	if _, _, err := DecodeFrame(good[:HeaderSize-1]); err != io.ErrShortBuffer {
		t.Errorf("short header: %v", err)
	}
	if _, _, err := DecodeFrame(good[:len(good)-1]); err != io.ErrShortBuffer {
		t.Errorf("short payload: %v", err)
	}
}

// TestFrameTypeBytes pins every frame type's byte on the wire: the types are
// an iota list, so deleting or inserting an entry would silently renumber
// every later frame and break every peer built before the change.
func TestFrameTypeBytes(t *testing.T) {
	for _, tc := range []struct {
		t    Type
		b    byte
		name string
	}{
		{THello, 1, "hello"},
		{TWelcome, 2, "welcome"},
		{TIngest, 3, "ingest"},
		{TSubscribe, 4, "subscribe"},
		{TSubscribed, 5, "subscribed"},
		{TUnsubscribe, 6, "unsubscribe"},
		{TAnswer, 7, "answer"},
		{TAck, 10, "ack"},
		{TError, 11, "error"},
		{TGoodbye, 12, "goodbye"},
		{TPing, 13, "ping"},
		{TPong, 14, "pong"},
		{TResume, 15, "resume"},
		{TResumed, 16, "resumed"},
		{THandoffBegin, 17, "handoff-begin"},
		{THandoffChunk, 18, "handoff-chunk"},
		{THandoffCommit, 19, "handoff-commit"},
		{THandoffAck, 20, "handoff-ack"},
	} {
		if byte(tc.t) != tc.b || tc.t.String() != tc.name {
			t.Errorf("%s = byte %d, want %s = %d", tc.t, byte(tc.t), tc.name, tc.b)
		}
	}
	if typeCount != 21 {
		t.Errorf("typeCount = %d, want 21: a new frame type needs a row here", typeCount)
	}
	// The retired registration bytes stay readable frames (so the session
	// layer can refuse them with an error, not a dropped connection) and
	// carry no name.
	for _, b := range []byte{8, 9} {
		f := AppendFrame(nil, Type(b), []byte{1})
		if fr, _, err := DecodeFrame(f); err != nil || fr.Type != Type(b) {
			t.Errorf("frame of reserved type %d: %v, %v", b, fr.Type, err)
		}
		if got, want := Type(b).String(), fmt.Sprintf("type(%d)", b); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", b, got, want)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	evs := []event.Event{
		event.New("a", 1).WithSource("s1"),
		event.New("b", 2),
	}
	hello := Hello{Proto: Version, Token: "tenant-a"}
	welcome := Welcome{Tenant: "tenant-a", Shards: 8, Grant: 12.5, Queries: []string{"q1", "q2"},
		Session: "tok-123", HeartbeatMillis: 2000, ResumeWindowMillis: 30000}
	ingest := Ingest{Req: 3, Events: evs}
	sub := Subscribe{Req: 4, ID: 9, Query: "q1"}
	subd := Subscribed{Req: 4, ID: 9}
	unsub := Unsubscribe{Req: 5, ID: 9}
	ans := Answer{Sub: 9, Seq: 41, Stream: "s1", Query: "q1", Epoch: 2, WindowIndex: 11,
		Start: -10, End: 10, Detected: true, Suppressed: false, SpentEpsilon: 1.5, RemainingEpsilon: 11}
	gap := Answer{Sub: 9, Seq: 40, Query: "q1", Gap: true, GapFrom: 33}
	ack := Ack{Req: 3, N: 2}
	werr := Error{Req: 4, Code: CodeQuota, Msg: "grant exhausted"}
	bye := Goodbye{Reason: "drain"}
	ping := Ping{Nonce: 77}
	pong := Pong{Nonce: 77}
	res := Resume{Req: 8, Session: "tok-123", Subs: []ResumeSub{{ID: 9, LastSeq: 41}, {ID: 10, LastSeq: 0}}}
	resd := Resumed{Req: 8, Session: "tok-123", Subs: []uint64{9}}

	if got, err := DecodeHello(AppendHello(nil, hello)); err != nil || got != hello {
		t.Errorf("hello: %+v, %v", got, err)
	}
	if got, err := DecodeWelcome(AppendWelcome(nil, welcome)); err != nil || !reflect.DeepEqual(got, welcome) {
		t.Errorf("welcome: %+v, %v", got, err)
	}
	gotIn, err := DecodeIngest(AppendIngest(nil, ingest), nil)
	if err != nil || gotIn.Req != ingest.Req || len(gotIn.Events) != len(evs) {
		t.Fatalf("ingest: %+v, %v", gotIn, err)
	}
	for i := range evs {
		if evs[i] != gotIn.Events[i] {
			t.Errorf("ingest event %d differs", i)
		}
	}
	if got, err := DecodeSubscribe(AppendSubscribe(nil, sub)); err != nil || got != sub {
		t.Errorf("subscribe: %+v, %v", got, err)
	}
	if got, err := DecodeSubscribed(AppendSubscribed(nil, subd)); err != nil || got != subd {
		t.Errorf("subscribed: %+v, %v", got, err)
	}
	if got, err := DecodeUnsubscribe(AppendUnsubscribe(nil, unsub)); err != nil || got != unsub {
		t.Errorf("unsubscribe: %+v, %v", got, err)
	}
	if got, err := DecodeAnswer(AppendAnswer(nil, ans)); err != nil || got != ans {
		t.Errorf("answer: %+v, %v", got, err)
	}
	if got, err := DecodeAck(AppendAck(nil, ack)); err != nil || got != ack {
		t.Errorf("ack: %+v, %v", got, err)
	}
	if got, err := DecodeError(AppendError(nil, werr)); err != nil || got != werr {
		t.Errorf("error: %+v, %v", got, err)
	}
	if got, err := DecodeGoodbye(AppendGoodbye(nil, bye)); err != nil || got != bye {
		t.Errorf("goodbye: %+v, %v", got, err)
	}
	if got, err := DecodeAnswer(AppendAnswer(nil, gap)); err != nil || got != gap {
		t.Errorf("gap answer: %+v, %v", got, err)
	}
	if got, err := DecodePing(AppendPing(nil, ping)); err != nil || got != ping {
		t.Errorf("ping: %+v, %v", got, err)
	}
	if got, err := decodePong(AppendPong(nil, pong)); err != nil || got != pong {
		t.Errorf("pong: %+v, %v", got, err)
	}
	if got, err := DecodeResume(AppendResume(nil, res)); err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("resume: %+v, %v", got, err)
	}
	if got, err := DecodeResumed(AppendResumed(nil, resd)); err != nil || !reflect.DeepEqual(got, resd) {
		t.Errorf("resumed: %+v, %v", got, err)
	}
}

func TestAnswerRejectsBadGapEncoding(t *testing.T) {
	// A gap-from without the gap flag cannot be encoded honestly; splice it.
	b := AppendAnswer(nil, Answer{Sub: 1, Seq: 5})
	b = b[:len(b)-1]               // strip the zero GapFrom
	b = binary.AppendUvarint(b, 3) // GapFrom without Gap flag
	if _, err := DecodeAnswer(b); err == nil {
		t.Error("gap-from without gap flag accepted")
	}
	// A gap whose range is empty or inverted is invalid.
	if _, err := DecodeAnswer(AppendAnswer(nil, Answer{Sub: 1, Seq: 5, Gap: true})); err == nil {
		t.Error("gap with zero gap-from accepted")
	}
	if _, err := DecodeAnswer(AppendAnswer(nil, Answer{Sub: 1, Seq: 5, Gap: true, GapFrom: 6})); err == nil {
		t.Error("inverted gap range accepted")
	}
}

// TestInternedAnswerDecode pins what the interning decoder is for and what
// bounds it: a repeated answer decodes to the plain decoder's value without
// allocating, the table starts over at maxInterned names instead of growing,
// and an oversized name is never kept — not in the table, not as the last
// stream. Every decode reuses one Answer, as a client's read loop does, and
// starts it dirty, so a field the decoder fails to overwrite shows.
func TestInternedAnswerDecode(t *testing.T) {
	var names Interner
	got := Answer{Stream: "stale", Gap: true, GapFrom: 1, Suppressed: true, TraceNanos: 99}
	decode := func(a Answer) {
		t.Helper()
		if err := names.DecodeAnswer(AppendAnswer(nil, a), &got); err != nil || got != a {
			t.Fatalf("interned decode = %+v, %v; want %+v", got, err, a)
		}
	}
	a := Answer{Sub: 3, Seq: 9, Stream: "meter-17", Query: "jam", WindowIndex: 4, Start: 40, End: 50, Detected: true, SpentEpsilon: 0.5}
	enc := AppendAnswer(nil, a)
	decode(a)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := names.DecodeAnswer(enc, &got); err != nil || got != a {
			t.Fatalf("interned decode = %+v, %v", got, err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a repeated answer allocates %v times, want 0", allocs)
	}

	// The last-stream check compares bytes, not lengths: a same-length key
	// that differs is a different stream.
	b := a
	b.Stream = "meter-18"
	decode(b)
	// Two streams alternating miss the last-stream check every time and
	// still decode right, from the table, without allocating.
	for i := 0; i < 4; i++ {
		decode([]Answer{a, b}[i%2])
	}
	alt := [][]byte{AppendAnswer(nil, a), AppendAnswer(nil, b)}
	want := []string{a.Stream, b.Stream}
	if allocs := testing.AllocsPerRun(100, func() {
		for i, enc := range alt {
			if err := names.DecodeAnswer(enc, &got); err != nil || got.Stream != want[i] {
				t.Fatalf("interned decode = %+v, %v", got, err)
			}
		}
	}); allocs != 0 {
		t.Errorf("decoding two alternating streams allocates %v times per pair, want 0", allocs)
	}

	// A bad string length right after a cached stream fails exactly as the
	// plain decoder does: the check never looks past the length prefix.
	decode(a)
	head := binary.AppendUvarint(binary.AppendUvarint(nil, a.Sub), a.Seq)
	for _, bad := range [][]byte{
		binary.AppendUvarint(bytes.Clone(head), uint64(len(a.Stream))),                          // length past the payload end
		append(binary.AppendUvarint(bytes.Clone(head), uint64(len(a.Stream))), a.Stream[:4]...), // the key cut short
		append(bytes.Clone(head), 0xff),                                                         // a length that is no uvarint
	} {
		_, perr := DecodeAnswer(bad)
		ierr := names.DecodeAnswer(bad, &got)
		if perr == nil || ierr == nil || perr.Error() != ierr.Error() {
			t.Errorf("payload %x: interned decode failed with %v, plain with %v", bad, ierr, perr)
		}
	}
	decode(a)

	for i := 0; i < 3*maxInterned; i++ {
		a.Stream = fmt.Sprintf("s%d", i)
		decode(a)
		if len(names.names) > maxInterned {
			t.Fatalf("table holds %d names after %d streams, bound %d", len(names.names), i+1, maxInterned)
		}
	}
	clear(names.names)
	a.Stream = strings.Repeat("x", maxInternedLen+1)
	decode(a)
	decode(a)
	if _, kept := names.names[a.Stream]; kept {
		t.Errorf("a %d-byte name was interned, limit %d", len(a.Stream), maxInternedLen)
	}
	if names.stream == a.Stream {
		t.Errorf("a %d-byte name was kept as the last stream, limit %d", len(a.Stream), maxInternedLen)
	}
}

// TestInternedIngestDecode is TestInternedAnswerDecode for ingest batches: a
// batch of known types and sources decodes to the plain decoder's value
// without allocating, a peer cycling through fresh names cannot grow the
// table past maxInterned, and an oversized name is never kept.
func TestInternedIngestDecode(t *testing.T) {
	var names Interner
	in := Ingest{Req: 7}
	for i := 0; i < 64; i++ {
		in.Events = append(in.Events, event.New(event.Type(fmt.Sprintf("t%d", i%12)), event.Timestamp(i)).WithSource("meter-17"))
	}
	enc := AppendIngest(nil, in)
	scratch := make([]event.Event, 0, len(in.Events))
	got, err := names.DecodeIngest(enc, scratch)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("interned decode = %+v, %v; want %+v", got, err, in)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, err := names.DecodeIngest(enc, scratch[:0]); err != nil || got.Req != in.Req || len(got.Events) != len(in.Events) {
			t.Fatalf("interned decode = %+v, %v", got, err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a batch of known names allocates %v times, want 0", allocs)
	}
	one := Ingest{Req: 1, Events: []event.Event{{Time: 1}}}
	for i := 0; i < 3*maxInterned; i++ {
		one.Events[0].Type = event.Type(fmt.Sprintf("t%d", i))
		one.Events[0].Source = fmt.Sprintf("s%d", i)
		if got, err := names.DecodeIngest(AppendIngest(nil, one), nil); err != nil || !reflect.DeepEqual(got, one) {
			t.Fatalf("interned decode = %+v, %v; want %+v", got, err, one)
		}
		if len(names.names) > maxInterned {
			t.Fatalf("table holds %d names after %d events, bound %d", len(names.names), i+1, maxInterned)
		}
	}
	clear(names.names)
	one.Events[0].Type = event.Type(strings.Repeat("x", maxInternedLen+1))
	if got, err := names.DecodeIngest(AppendIngest(nil, one), nil); err != nil || !reflect.DeepEqual(got, one) {
		t.Fatalf("interned decode of a long name: %+v, %v", got, err)
	}
	if _, kept := names.names[string(one.Events[0].Type)]; kept {
		t.Errorf("a %d-byte name was interned, limit %d", len(one.Events[0].Type), maxInternedLen)
	}
}

func TestPayloadRejectsTrailingBytes(t *testing.T) {
	if _, err := DecodeAck(append(AppendAck(nil, Ack{Req: 1, N: 2}), 0x00)); err == nil {
		t.Error("ack with trailing bytes accepted")
	}
	if _, err := DecodeIngest(append(AppendIngest(nil, Ingest{Req: 1}), 0x01), nil); err == nil {
		t.Error("ingest with trailing bytes accepted")
	}
}

func TestPayloadRejectsHostileCounts(t *testing.T) {
	// A welcome whose query count far exceeds the payload must be rejected
	// before allocating.
	b := AppendWelcome(nil, Welcome{Tenant: "t", Shards: 1})
	b = b[:len(b)-4]                                // strip count + session/heartbeat/resume tail
	b = binary.AppendUvarint(b, uint64(MaxPayload)) // hostile count
	if _, err := DecodeWelcome(b); err == nil {
		t.Error("hostile welcome query count accepted")
	}
	b = AppendResume(nil, Resume{Req: 1, Session: "s"})
	b = b[:len(b)-1] // strip the zero subscription count
	b = binary.AppendUvarint(b, uint64(MaxPayload))
	if _, err := DecodeResume(b); err == nil {
		t.Error("hostile resume subscription count accepted")
	}
}
