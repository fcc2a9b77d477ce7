package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"patterndp/internal/event"
)

// chunkedReader serves data in runs whose lengths are taken from the data
// itself (1 to 64 bytes), so the fuzzer's input decides how the stream is cut
// up as well as what it holds.
type chunkedReader struct {
	data []byte
	off  int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 1+int(c.data[c.off]%64))], c.data[c.off:])
	c.off += n
	return n, nil
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder (mirroring the
// WAL's FuzzSegmentDecode): it must never panic, every frame it accepts must
// sit in a CRC-valid header and re-encode to the bytes it consumed, and the
// streaming Reader — fed the same bytes whole, one at a time, and in
// arbitrary runs — must return exactly the frames repeated DecodeFrame calls
// return and then fail the way the slice decoder did: a clean io.EOF at a
// frame boundary, io.ErrUnexpectedEOF inside a frame, a protocol error on the
// same bad header or payload.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, THello, AppendHello(nil, Hello{Proto: Version, Token: "tenant-a"})))
	f.Add(AppendFrame(nil, TIngest, AppendIngest(nil, Ingest{
		Req:    1,
		Events: []event.Event{event.New("a", 1).WithSource("s")},
	})))
	f.Add(AppendFrame(nil, TAck, AppendAck(nil, Ack{Req: 1, N: 1})))
	f.Add(AppendFrame(nil, TPing, AppendPing(nil, Ping{Nonce: 7})))
	f.Add(AppendFrame(nil, TResume, AppendResume(nil, Resume{
		Req: 2, Session: "tok", Subs: []ResumeSub{{ID: 1, LastSeq: 9}},
	})))
	whole := AppendFrame(nil, TAnswer, AppendAnswer(nil, Answer{Sub: 1, Seq: 3, Stream: "s", Query: "q"}))
	f.Add(whole[:len(whole)-2]) // torn tail
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+4))
	f.Add(AppendFrame(AppendAnswerFrame(bytes.Clone(whole), &Answer{Sub: 2, Seq: 1, Gap: true, GapFrom: 1}), TAck, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Frame
		var wantErr error
		for rest := data; ; {
			fr, n, err := DecodeFrame(rest)
			if err == io.ErrShortBuffer {
				wantErr = io.EOF
				if len(rest) > 0 {
					wantErr = io.ErrUnexpectedEOF
				}
				break
			}
			if err != nil {
				wantErr = err
				break
			}
			if n < HeaderSize || n > len(rest) {
				t.Fatalf("consumed %d of %d bytes", n, len(rest))
			}
			// The accepted frame must re-encode to exactly the consumed bytes.
			if again := AppendFrame(nil, fr.Type, fr.Payload); !bytes.Equal(again, rest[:n]) {
				t.Fatalf("frame does not re-encode canonically:\n %x\n %x", again, rest[:n])
			}
			// And its CRC must genuinely cover the payload.
			if crc32.ChecksumIEEE(fr.Payload) != binary.LittleEndian.Uint32(rest[8:]) {
				t.Fatal("accepted frame with mismatched CRC")
			}
			want = append(want, fr)
			rest = rest[n:]
		}
		for name, transport := range map[string]io.Reader{
			"whole":    bytes.NewReader(data),
			"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
			"chunked":  &chunkedReader{data: data},
		} {
			r := NewReader(transport)
			for i, fr := range want {
				sf, err := r.Next()
				if err != nil {
					t.Fatalf("%s: reader rejected frame %d DecodeFrame accepted: %v", name, i, err)
				}
				if sf.Type != fr.Type || !bytes.Equal(sf.Payload, fr.Payload) {
					t.Fatalf("%s: reader and slice decoder disagree on frame %d", name, i)
				}
			}
			_, err := r.Next()
			if err == nil {
				t.Fatalf("%s: reader accepted a frame DecodeFrame rejected (%v)", name, wantErr)
			}
			if streamEnd := wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF; streamEnd && err != wantErr {
				t.Fatalf("%s: reader ended with %v, want %v", name, err, wantErr)
			} else if !streamEnd && err.Error() != wantErr.Error() {
				t.Fatalf("%s: reader failed with %v, slice decoder with %v", name, err, wantErr)
			}
		}
	})
}

// FuzzDecodeIngestInterned is the differential check of the interning ingest
// decoder: for any payload it must return exactly what the plain decoder
// returns — the same Ingest, event for event, and the same error — both into
// a fresh table and into one already holding the payload's names. The seeds
// include a batch whose distinct names overflow the table (which then starts
// over mid-batch), a name too long to be kept, and the retired event flags
// the decoder refuses.
func FuzzDecodeIngestInterned(f *testing.F) {
	f.Add(AppendIngest(nil, Ingest{Req: 3, Events: []event.Event{
		event.New("a", 1).WithSource("s"), event.New("b", 2).WithSource("s"), event.New("a", 3),
	}}))
	var many Ingest
	for i := 0; i < maxInterned/2+8; i++ {
		many.Events = append(many.Events, event.New(event.Type(fmt.Sprintf("t%d", i)), event.Timestamp(i)).WithSource(fmt.Sprintf("s%d", i)))
	}
	f.Add(AppendIngest(nil, many))
	long := event.Type(strings.Repeat("x", maxInternedLen+1))
	f.Add(AppendIngest(nil, Ingest{Req: 1, Events: []event.Event{event.New(long, 1), event.New(long, 2)}}))
	for _, h := range []string{
		"02016102a48bb09909",
		"0401610201016b010e",
		"07076770732d6669785406746178692d370a0101780106",
		"0201610202",
		"040161",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{9, 1}, b...))
	}
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeIngest(data, nil)
		var names Interner
		for pass := 0; pass < 2; pass++ {
			got, err := names.DecodeIngest(data, nil)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("pass %d: interned error %v, plain error %v", pass, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: interned decode %+v, plain %+v", pass, got, want)
			}
		}
	})
}

// FuzzResumeDecode throws arbitrary bytes at the Resume/Resumed codecs: no
// panics, no unbounded allocations from hostile counts, and every accepted
// value must survive a re-encode/re-decode round trip unchanged (varints
// admit non-minimal encodings, so byte identity with the input is not
// required — semantic identity is).
func FuzzResumeDecode(f *testing.F) {
	f.Add(AppendResume(nil, Resume{Req: 1, Session: "tok", Subs: []ResumeSub{{ID: 2, LastSeq: 41}, {ID: 3}}}))
	f.Add(AppendResumed(nil, Resumed{Req: 1, Session: "tok", Subs: []uint64{2}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeResume(data); err == nil {
			r2, err := DecodeResume(AppendResume(nil, r))
			if err != nil || !reflect.DeepEqual(r, r2) {
				t.Fatalf("resume round trip: %+v -> %+v (%v)", r, r2, err)
			}
		}
		if r, err := DecodeResumed(data); err == nil {
			r2, err := DecodeResumed(AppendResumed(nil, r))
			if err != nil || !reflect.DeepEqual(r, r2) {
				t.Fatalf("resumed round trip: %+v -> %+v (%v)", r, r2, err)
			}
		}
	})
}

// FuzzHandoffDecode throws arbitrary bytes at the four Handoff codecs: no
// panics, no unbounded allocations from hostile file counts or chunk
// lengths, every accepted value round-trips, and accepted chunks never carry
// more than MaxHandoffChunk bytes.
func FuzzHandoffDecode(f *testing.F) {
	f.Add(AppendHandoffBegin(nil, HandoffBegin{
		Token: "tok", Source: "a:7070",
		Files: []HandoffFile{{Name: "ckpt-0000000000000001.ckpt", Size: 128, CRC: 0xdeadbeef}},
	}))
	f.Add(AppendHandoffChunk(nil, HandoffChunk{File: 0, Offset: 64, Data: []byte("payload")}))
	f.Add(AppendHandoffCommit(nil, HandoffCommit{Files: 2, Bytes: 4096, Sessions: 1, Spend: 12.5}))
	f.Add(AppendHandoffAck(nil, HandoffAck{OK: true, Files: 2, Bytes: 4096}))
	f.Add(AppendHandoffAck(nil, HandoffAck{Detail: "tally mismatch"}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHandoffBegin(data); err == nil {
			h2, err := DecodeHandoffBegin(AppendHandoffBegin(nil, h))
			if err != nil || !reflect.DeepEqual(h, h2) {
				t.Fatalf("handoff-begin round trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
		if c, err := DecodeHandoffChunk(data); err == nil {
			if len(c.Data) > MaxHandoffChunk {
				t.Fatalf("accepted %d-byte chunk past max %d", len(c.Data), MaxHandoffChunk)
			}
			c2, err := DecodeHandoffChunk(AppendHandoffChunk(nil, c))
			if err != nil || c2.File != c.File || c2.Offset != c.Offset || !bytes.Equal(c2.Data, c.Data) {
				t.Fatalf("handoff-chunk round trip: %+v -> %+v (%v)", c, c2, err)
			}
		}
		if c, err := DecodeHandoffCommit(data); err == nil {
			// Byte-compare re-encodings: Spend may carry NaN.
			enc := AppendHandoffCommit(nil, c)
			c2, err := DecodeHandoffCommit(enc)
			if err != nil || !bytes.Equal(AppendHandoffCommit(nil, c2), enc) {
				t.Fatalf("handoff-commit round trip: %+v -> %+v (%v)", c, c2, err)
			}
		}
		if a, err := DecodeHandoffAck(data); err == nil {
			a2, err := DecodeHandoffAck(AppendHandoffAck(nil, a))
			if err != nil || !reflect.DeepEqual(a, a2) {
				t.Fatalf("handoff-ack round trip: %+v -> %+v (%v)", a, a2, err)
			}
		}
	})
}

// FuzzLivenessDecode covers the Ping/Pong codecs and the Answer codec's gap
// extension: accepted values must survive a re-encode/re-decode round trip
// unchanged, and accepted answers must never violate the gap invariants
// (GapFrom only with the Gap flag, range non-empty and ordered). The Answer
// codec's interning decoder must agree with the plain one on every input.
func FuzzLivenessDecode(f *testing.F) {
	f.Add(AppendPing(nil, Ping{Nonce: 7}))
	f.Add(AppendAnswer(nil, Answer{Sub: 1, Seq: 9, Stream: "s", Query: "q", Detected: true}))
	f.Add(AppendAnswer(nil, Answer{Sub: 1, Seq: 9, Query: "q", Gap: true, GapFrom: 4}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	// One table across inputs, as a client's read loop keeps one across
	// frames: later inputs hit what earlier ones interned.
	var names Interner
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interned and plain decode agree: same verdict, same error, and —
		// compared as re-encodings, since floats may be NaN — the same fields.
		plain, perr := DecodeAnswer(data)
		var interned Answer
		ierr := names.DecodeAnswer(data, &interned)
		if (perr == nil) != (ierr == nil) || (perr != nil && perr.Error() != ierr.Error()) {
			t.Fatalf("interned decode failed with %v, plain with %v", ierr, perr)
		}
		if perr == nil && !bytes.Equal(AppendAnswer(nil, interned), AppendAnswer(nil, plain)) {
			t.Fatalf("interned decode %+v, plain %+v", interned, plain)
		}
		if len(names.names) > maxInterned {
			t.Fatalf("intern table holds %d names, bound %d", len(names.names), maxInterned)
		}
		if p, err := DecodePing(data); err == nil {
			if p2, err := DecodePing(AppendPing(nil, p)); err != nil || p2 != p {
				t.Fatalf("ping round trip: %+v -> %+v (%v)", p, p2, err)
			}
		}
		if p, err := decodePong(data); err == nil {
			if p2, err := decodePong(AppendPong(nil, p)); err != nil || p2 != p {
				t.Fatalf("pong round trip: %+v -> %+v (%v)", p, p2, err)
			}
		}
		if a, err := DecodeAnswer(data); err == nil {
			if !a.Gap && a.GapFrom != 0 {
				t.Fatal("accepted gap-from without gap flag")
			}
			if a.Gap && (a.GapFrom == 0 || a.GapFrom > a.Seq) {
				t.Fatalf("accepted invalid gap range [%d, %d]", a.GapFrom, a.Seq)
			}
			// Byte-compare the re-encodings rather than the structs: float
			// fields may legitimately carry NaN, which never compares equal.
			enc := AppendAnswer(nil, a)
			a2, err := DecodeAnswer(enc)
			if err != nil || !bytes.Equal(AppendAnswer(nil, a2), enc) {
				t.Fatalf("answer round trip: %+v -> %+v (%v)", a, a2, err)
			}
		}
	})
}
