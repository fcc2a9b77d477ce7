// Package wire is the framing layer of the network serving protocol: a
// length-prefixed, CRC-checksummed binary frame stream over any reliable
// byte connection (TCP, net.Pipe, an in-memory listener). Frames carry the
// compact binary event encoding from internal/event; the session semantics
// on top of them live in internal/server.
//
// Every frame is
//
//	version  u8     (Version; a peer speaking a different version is
//	                 rejected at the first frame)
//	type     u8     (frame Type)
//	flags    u16 LE (reserved, zero)
//	length   u32 LE (payload byte count, ≤ MaxPayload)
//	crc      u32 LE (CRC-32/IEEE of the payload)
//	payload  length bytes
//
// so a reader can always resynchronize trust: a frame whose length exceeds
// MaxPayload or whose payload fails the CRC is a protocol error and kills
// the connection — the stream carries no record boundaries to skip to.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the protocol version carried in every frame header.
const Version = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 12

// MaxPayload bounds a single frame's payload so a corrupt or hostile length
// prefix cannot force an unbounded allocation. Ingest batches larger than
// this must be split across frames.
const MaxPayload = 4 << 20

// Type identifies a frame's meaning.
type Type uint8

// Frame types. Client→server: Hello, Ingest, Subscribe, Unsubscribe, Resume,
// Goodbye. Server→client: Welcome, Subscribed, Answer, Resumed, Ack, Error,
// Goodbye. Either direction: Ping, Pong. Process→process (rolling restart):
// HandoffBegin, HandoffChunk, HandoffCommit from the draining source,
// HandoffAck back from the takeover target.
const (
	invalidType Type = iota
	// THello opens a connection: protocol handshake plus the auth token.
	THello
	// TWelcome accepts a Hello: the authenticated tenant and server facts.
	TWelcome
	// TIngest carries a batch of binary-encoded events.
	TIngest
	// TSubscribe opens a streaming answer subscription for one query.
	TSubscribe
	// TSubscribed confirms a subscription.
	TSubscribed
	// TUnsubscribe cancels a subscription by id.
	TUnsubscribe
	// TAnswer streams one released query answer to a subscriber.
	TAnswer
	// Bytes 8 and 9 once carried tenant query and private-pattern
	// registrations (RegisterQuery, RegisterPrivate). Registration is an
	// in-process control-plane call now; the slots stay reserved so every
	// later type keeps its byte, and a peer that sends one is refused.
	_
	_
	// TAck confirms a request by id.
	TAck
	// TError reports a request or connection failure.
	TError
	// TGoodbye announces an orderly close (client done, or server drain).
	TGoodbye
	// TPing probes peer liveness; either side may send it. The receiver
	// answers with a TPong echoing the nonce.
	TPing
	// TPong answers a TPing.
	TPong
	// TResume re-attaches a reconnecting client to its previous session
	// state (replay rings, subscriptions) by session token.
	TResume
	// TResumed answers a TResume with the subscriptions that were resumed.
	TResumed
	// THandoffBegin opens a partition handoff: a draining process announces
	// the durable files it is about to stream to the takeover peer.
	THandoffBegin
	// THandoffChunk carries one bounded slice of a handoff file.
	THandoffChunk
	// THandoffCommit ends the file stream and asks the receiver to atomically
	// adopt the shipped state.
	THandoffCommit
	// THandoffAck confirms (or refuses) a HandoffCommit.
	THandoffAck
	typeCount
)

// String names the frame type for logs and errors.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TWelcome:
		return "welcome"
	case TIngest:
		return "ingest"
	case TSubscribe:
		return "subscribe"
	case TSubscribed:
		return "subscribed"
	case TUnsubscribe:
		return "unsubscribe"
	case TAnswer:
		return "answer"
	case TAck:
		return "ack"
	case TError:
		return "error"
	case TGoodbye:
		return "goodbye"
	case TPing:
		return "ping"
	case TPong:
		return "pong"
	case TResume:
		return "resume"
	case TResumed:
		return "resumed"
	case THandoffBegin:
		return "handoff-begin"
	case THandoffChunk:
		return "handoff-chunk"
	case THandoffCommit:
		return "handoff-commit"
	case THandoffAck:
		return "handoff-ack"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// valid reports whether t is a defined frame type.
func (t Type) valid() bool { return t > invalidType && t < typeCount }

// Frame is one decoded frame. Payload aliases the reader's buffer and is
// valid only until the next read — decode it (or copy it) before advancing.
type Frame struct {
	Type    Type
	Payload []byte
}

// BufferSize is the unit of socket I/O on both sides of a connection: a
// Reader asks the transport for up to this many bytes per read, and the
// server's answer writer flushes its coalesced frames once they pass it.
const BufferSize = 64 << 10

// appendHeader appends a frame header whose length and CRC fields are still
// zero; sealFrame patches them once the payload has been appended behind it.
func appendHeader(dst []byte, t Type) []byte {
	return append(dst, Version, byte(t), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealFrame completes the frame whose header starts at dst[start]: everything
// after the header is its payload.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	start := len(dst)
	return sealFrame(append(appendHeader(dst, t), payload...), start)
}

// AppendAnswerFrame appends a complete Answer frame to dst, encoding *a in
// place behind its header — byte-identical to
// AppendFrame(dst, TAnswer, AppendAnswer(nil, *a)) without the intermediate
// payload slice or a copy of the answer.
func AppendAnswerFrame(dst []byte, a *Answer) []byte {
	start := len(dst)
	return sealFrame(appendAnswer(appendHeader(dst, TAnswer), a), start)
}

// AppendAckFrame appends a complete Ack frame to dst, encoding the payload in
// place behind its header — byte-identical to
// AppendFrame(dst, TAck, AppendAck(nil, a)) without the intermediate payload
// slice.
func AppendAckFrame(dst []byte, a Ack) []byte {
	start := len(dst)
	return sealFrame(AppendAck(appendHeader(dst, TAck), a), start)
}

// AppendIngestFrame appends a complete Ingest frame to dst, encoding the
// payload in place behind its header — byte-identical to
// AppendFrame(dst, TIngest, AppendIngest(nil, in)) without the intermediate
// payload slice.
func AppendIngestFrame(dst []byte, in Ingest) []byte {
	start := len(dst)
	return sealFrame(AppendIngest(appendHeader(dst, TIngest), in), start)
}

// WriteFrame writes one frame to w. The caller serializes concurrent
// writers; a frame is a single Write call, so writes that are serialized
// never interleave on the wire.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(payload)), t, payload)
	_, err := w.Write(buf)
	return err
}

// decodeHeader validates the frame header at the front of b (at least
// HeaderSize bytes) and returns the frame type and payload length. It is the
// one place a header is trusted or rejected.
func decodeHeader(b []byte) (Type, int, error) {
	if b[0] != Version {
		return 0, 0, fmt.Errorf("wire: protocol version %d, want %d", b[0], Version)
	}
	t := Type(b[1])
	if !t.valid() {
		return 0, 0, fmt.Errorf("wire: unknown frame type %d", b[1])
	}
	if flags := binary.LittleEndian.Uint16(b[2:]); flags != 0 {
		return 0, 0, fmt.Errorf("wire: reserved flags %#x set", flags)
	}
	length := binary.LittleEndian.Uint32(b[4:])
	if length > MaxPayload {
		return 0, 0, fmt.Errorf("wire: frame length %d exceeds max %d", length, MaxPayload)
	}
	return t, int(length), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the bytes consumed. The returned payload aliases b. io.ErrShortBuffer
// means b holds a valid prefix of a frame and more bytes are needed; any
// other error is a protocol violation.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, io.ErrShortBuffer
	}
	t, length, err := decodeHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b)-HeaderSize < length {
		return Frame{}, 0, io.ErrShortBuffer
	}
	payload := b[HeaderSize : HeaderSize+length]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(b[8:]) {
		return Frame{}, 0, fmt.Errorf("wire: %s frame payload CRC mismatch", t)
	}
	return Frame{Type: t, Payload: payload}, HeaderSize + length, nil
}

// Reader decodes a frame stream from an io.Reader through a read-ahead
// buffer: one Read of the transport fetches however many frames the peer has
// already sent (up to BufferSize bytes), and Next parses them in place with
// DecodeFrame. The buffer starts small — most connections only ever carry
// requests and acks — becomes BufferSize the first time a read fills it, and
// beyond that grows only for a single frame that needs it, never past
// HeaderSize+MaxPayload.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read but not yet returned
	full     bool  // the last read filled buf: the transport may hold more
	err      error // transport error to report once buf[pos:end] runs short
}

// initialBuffer is a Reader's buffer before any read has filled it.
const initialBuffer = 4 << 10

// NewReader wraps r. The reader does its own buffering — r should be the raw
// transport — and may read past the frame it returns, so one connection must
// be read through one Reader for its whole life.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, initialBuffer)}
}

// Ready reports whether the next call to Next returns without reading the
// transport: the buffer already holds a whole frame, a header Next will
// reject, or the transport's final error. When it is false Next reads and may
// block on the peer — the moment to re-arm a read deadline, since one armed
// before the previous read has been running while the buffered frames were
// handled.
func (r *Reader) Ready() bool {
	b := r.buf[r.pos:r.end]
	if r.err != nil {
		return true
	}
	if len(b) < HeaderSize {
		return false
	}
	_, length, err := decodeHeader(b)
	return err != nil || len(b)-HeaderSize >= length
}

// Next returns the next frame, reading from the transport only when the
// buffer does not already hold a whole one. The returned payload aliases the
// buffer and is valid until the following Next call. io.EOF is returned only
// at a clean frame boundary; a connection cut mid-frame surfaces as
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (Frame, error) {
	for {
		f, n, err := DecodeFrame(r.buf[r.pos:r.end])
		if err == nil {
			r.pos += n
			return f, nil
		}
		if err != io.ErrShortBuffer {
			return Frame{}, err
		}
		if r.err != nil {
			err, r.err = r.err, nil
			if err == io.EOF && r.pos < r.end {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
		r.fill()
	}
}

// fill moves the partial frame at buf[pos:end] to the front of the buffer,
// grows the buffer if that frame cannot fit or the last read filled it, and
// reads once.
func (r *Reader) fill() {
	if r.pos > 0 {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
	}
	size := len(r.buf)
	if r.full {
		size = max(size, BufferSize)
	}
	if r.end >= HeaderSize {
		// DecodeFrame came up short on the payload, so the header is valid.
		_, length, _ := decodeHeader(r.buf)
		size = max(size, HeaderSize+length)
	}
	if size > len(r.buf) {
		r.buf = append(make([]byte, 0, size), r.buf[:r.end]...)[:size]
	}
	n, err := r.r.Read(r.buf[r.end:])
	r.end += n
	r.full = r.end == len(r.buf)
	r.err = err
}
