package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"patterndp/internal/event"
)

// Payload codecs: one struct per frame type with Append/Decode pairs. All
// integers are varint/uvarint, strings are uvarint-length-prefixed, floats
// are fixed 8-byte LE bit patterns. Every decoder consumes the whole
// payload — trailing bytes are a protocol error, so a frame can never smuggle
// undecoded state past a validator.

// maxStringLen bounds string length prefixes inside payloads (the frame
// itself is already bounded by MaxPayload).
const maxStringLen = MaxPayload

// Error codes carried by TError frames.
const (
	// CodeProto is a malformed or out-of-sequence frame; the connection is
	// closed after sending it.
	CodeProto uint8 = 1 + iota
	// CodeAuth is a rejected Hello token.
	CodeAuth
	// CodeQuota is a request denied by the tenant's quota (budget grant
	// exhausted or stream cap reached).
	CodeQuota
	// CodeUnknownQuery is a Subscribe for a name the server serves no query
	// under.
	CodeUnknownQuery
	// CodeInvalid is a semantically invalid request (a subscription id
	// already in use, or unknown to Unsubscribe).
	CodeInvalid
	// CodeDraining is a request rejected because the server is shutting
	// down; the peer should drain answers and close.
	CodeDraining
	// CodeInternal is a server-side failure serving the request.
	CodeInternal
	// CodeThrottled is a request refused by the tenant's events/s rate
	// limit; the Error's RetryAfterMillis says when capacity returns.
	CodeThrottled
)

// Hello opens a connection.
type Hello struct {
	// Proto is the highest protocol version the client speaks (currently
	// always Version; carried so a future server can negotiate down).
	Proto uint64
	// Token authenticates the tenant (interpreted by the server's AuthFunc).
	Token string
}

// Welcome accepts a Hello.
type Welcome struct {
	// Tenant is the authenticated tenant id: the namespace prefix of every
	// stream key the connection owns.
	Tenant string
	// Shards is the serving runtime's shard count.
	Shards uint64
	// Grant is the tenant's ε quota (0 = unlimited).
	Grant float64
	// Queries are the server's query names, the same for every tenant, any
	// of which the tenant may subscribe to.
	Queries []string
	// Session is the server-issued session token a reconnecting client
	// presents in a Resume frame to re-attach to this session's state.
	Session string
	// HeartbeatMillis is the ping cadence the server expects: a session
	// silent for two intervals is presumed dead and reaped. 0 = the server
	// applies no idle deadline.
	HeartbeatMillis uint64
	// ResumeWindowMillis is how long the session's replay state lingers
	// after a disconnect before it is reaped. 0 = resume disabled.
	ResumeWindowMillis uint64
}

// Ingest carries one batch of events.
type Ingest struct {
	// Req identifies the request for its Ack/Error.
	Req uint64
	// Events is the batch; sources are tenant-relative stream keys.
	Events []event.Event
}

// Subscribe opens a streaming answer subscription.
type Subscribe struct {
	Req uint64
	// ID is the client-chosen subscription id Answer frames will carry.
	ID uint64
	// Query is the query name ("" subscribes to every query). Names are the
	// server's, the same for every tenant.
	Query string
}

// Subscribed confirms a Subscribe.
type Subscribed struct {
	Req uint64
	ID  uint64
}

// Unsubscribe cancels a subscription.
type Unsubscribe struct {
	Req uint64
	ID  uint64
}

// Answer streams one released answer to a subscriber — or, with Gap set, an
// explicit marker that a contiguous run of answers was lost to replay-ring
// overflow and can no longer be delivered.
type Answer struct {
	// Sub is the subscription id the answer belongs to.
	Sub uint64
	// Seq is the answer's per-subscription sequence number (1-based,
	// contiguous). A subscriber that reconnects resumes from its last seen
	// Seq; duplicates from replay overlap are deduplicated by it. On a Gap
	// marker, Seq is the last sequence number the gap covers.
	Seq uint64
	// Stream is the tenant-relative stream key (namespace prefix stripped).
	Stream string
	// Query is the query name.
	Query string
	// Epoch is the control-plane epoch the answer was served under.
	Epoch uint64
	// WindowIndex is the window's position in the stream feed.
	WindowIndex uint64
	// Start and End delimit the half-open window interval.
	Start, End int64
	// Detected is the released (perturbed) binary answer.
	Detected bool
	// Suppressed marks a budget-suppressed placeholder.
	Suppressed bool
	// SpentEpsilon and RemainingEpsilon are the stream's budget position
	// after the release (zero when accounting is off).
	SpentEpsilon, RemainingEpsilon float64
	// Gap marks this answer as a loss marker instead of a release: the
	// answers with sequence numbers in [GapFrom, Seq] overflowed the
	// replay ring before delivery and are gone. A Gap marker carries no
	// window; Stream is empty and Detected is false.
	Gap bool
	// GapFrom is the first sequence number a Gap marker covers (0 on
	// ordinary answers).
	GapFrom uint64
	// TraceNanos is the lifecycle-trace origin the runtime answer carried
	// (unix nanoseconds of ingest admission; 0 untraced). It is server-local
	// provenance, not payload — AppendAnswer never encodes it and
	// DecodeAnswer always leaves it zero — so the serving process can extend
	// a sampled trace to the delivery write without widening the protocol.
	TraceNanos int64
}

// Ack confirms a request.
type Ack struct {
	Req uint64
	// N is request-specific: for Ingest, the batch's event count, acked
	// once the shards have served all N events (overload makes a batch
	// wait, never drops part of it); 0 otherwise.
	N uint64
}

// Error reports a failed request (Req from the request) or a
// connection-level fault (Req 0).
type Error struct {
	Req  uint64
	Code uint8
	Msg  string
	// RetryAfterMillis is how long the peer should wait before retrying the
	// request (CodeThrottled; 0 elsewhere — retry policy is the peer's).
	RetryAfterMillis uint64
}

// Goodbye announces an orderly close.
type Goodbye struct {
	// Reason is human-readable ("drain", "client done", …).
	Reason string
}

// Ping probes liveness. Either side may send one at any time after the
// handshake; the receiver echoes the nonce back in a Pong.
type Ping struct {
	// Nonce correlates the Pong (senders typically use a counter).
	Nonce uint64
}

// Pong answers a Ping.
type Pong struct {
	Nonce uint64
}

// ResumeSub names one subscription a reconnecting client wants resumed.
type ResumeSub struct {
	// ID is the client-chosen subscription id.
	ID uint64
	// LastSeq is the highest answer sequence number the client has seen on
	// the subscription (0 = none); replay starts after it.
	LastSeq uint64
}

// Resume re-attaches a reconnecting client to its previous session state.
// It must be the first request after the handshake, before any Subscribe.
// Subscriptions held by the old session but absent from Subs are cancelled.
type Resume struct {
	Req uint64
	// Session is the token the previous Welcome (or Resumed) issued.
	Session string
	// Subs lists the client's live subscriptions and replay positions.
	Subs []ResumeSub
}

// Resumed answers a Resume.
type Resumed struct {
	Req uint64
	// Session is the token now naming this connection's session state: the
	// Resume's token when the old state was adopted, the fresh handshake's
	// token when it had expired. The client uses it for the next Resume.
	Session string
	// Subs are the subscription ids that were resumed with their replay
	// state intact. Ids the client asked for that are missing here must be
	// re-subscribed from scratch (their sequence numbers restart at 1).
	Subs []uint64
}

// Append/Decode pairs.

// AppendHello appends h's payload encoding to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, h.Proto)
	return appendString(dst, h.Token)
}

// DecodeHello decodes a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	d := decoder{b: b}
	h.Proto = d.uvarint()
	h.Token = d.string()
	return h, d.finish("hello")
}

// AppendWelcome appends w's payload encoding to dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = appendString(dst, w.Tenant)
	dst = binary.AppendUvarint(dst, w.Shards)
	dst = appendFloat(dst, w.Grant)
	dst = binary.AppendUvarint(dst, uint64(len(w.Queries)))
	for _, q := range w.Queries {
		dst = appendString(dst, q)
	}
	dst = appendString(dst, w.Session)
	dst = binary.AppendUvarint(dst, w.HeartbeatMillis)
	return binary.AppendUvarint(dst, w.ResumeWindowMillis)
}

// DecodeWelcome decodes a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	var w Welcome
	d := decoder{b: b}
	w.Tenant = d.string()
	w.Shards = d.uvarint()
	w.Grant = d.float()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off)+1 {
		return w, fmt.Errorf("wire: welcome: query count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		w.Queries = append(w.Queries, d.string())
	}
	w.Session = d.string()
	w.HeartbeatMillis = d.uvarint()
	w.ResumeWindowMillis = d.uvarint()
	return w, d.finish("welcome")
}

// AppendIngest appends i's payload encoding to dst.
func AppendIngest(dst []byte, i Ingest) []byte {
	dst = binary.AppendUvarint(dst, i.Req)
	return event.AppendBinaryBatch(dst, i.Events)
}

// DecodeIngest decodes an Ingest payload, appending the events into evs
// (which may be reused scratch).
func DecodeIngest(b []byte, evs []event.Event) (Ingest, error) {
	return (*Interner)(nil).DecodeIngest(b, evs)
}

// AppendSubscribe appends s's payload encoding to dst.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	dst = binary.AppendUvarint(dst, s.Req)
	dst = binary.AppendUvarint(dst, s.ID)
	return appendString(dst, s.Query)
}

// DecodeSubscribe decodes a Subscribe payload.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	var s Subscribe
	d := decoder{b: b}
	s.Req = d.uvarint()
	s.ID = d.uvarint()
	s.Query = d.string()
	return s, d.finish("subscribe")
}

// AppendSubscribed appends s's payload encoding to dst.
func AppendSubscribed(dst []byte, s Subscribed) []byte {
	dst = binary.AppendUvarint(dst, s.Req)
	return binary.AppendUvarint(dst, s.ID)
}

// DecodeSubscribed decodes a Subscribed payload.
func DecodeSubscribed(b []byte) (Subscribed, error) {
	var s Subscribed
	d := decoder{b: b}
	s.Req = d.uvarint()
	s.ID = d.uvarint()
	return s, d.finish("subscribed")
}

// AppendUnsubscribe appends u's payload encoding to dst.
func AppendUnsubscribe(dst []byte, u Unsubscribe) []byte {
	dst = binary.AppendUvarint(dst, u.Req)
	return binary.AppendUvarint(dst, u.ID)
}

// DecodeUnsubscribe decodes an Unsubscribe payload.
func DecodeUnsubscribe(b []byte) (Unsubscribe, error) {
	var u Unsubscribe
	d := decoder{b: b}
	u.Req = d.uvarint()
	u.ID = d.uvarint()
	return u, d.finish("unsubscribe")
}

// AppendAnswer appends a's payload encoding to dst.
func AppendAnswer(dst []byte, a Answer) []byte { return appendAnswer(dst, &a) }

// appendAnswer is AppendAnswer through a pointer: the 128-byte Answer is read
// where it lies instead of being copied per call.
func appendAnswer(dst []byte, a *Answer) []byte {
	dst = binary.AppendUvarint(dst, a.Sub)
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = appendString(dst, a.Stream)
	dst = appendString(dst, a.Query)
	dst = binary.AppendUvarint(dst, a.Epoch)
	dst = binary.AppendUvarint(dst, a.WindowIndex)
	dst = binary.AppendVarint(dst, a.Start)
	dst = binary.AppendVarint(dst, a.End)
	var bits byte
	if a.Detected {
		bits |= 1
	}
	if a.Suppressed {
		bits |= 2
	}
	if a.Gap {
		bits |= 4
	}
	dst = append(dst, bits)
	dst = appendFloat(dst, a.SpentEpsilon)
	dst = appendFloat(dst, a.RemainingEpsilon)
	return binary.AppendUvarint(dst, a.GapFrom)
}

// DecodeAnswer decodes an Answer payload.
func DecodeAnswer(b []byte) (Answer, error) {
	var a Answer
	err := (*Interner)(nil).DecodeAnswer(b, &a)
	return a, err
}

// Interner is a bounded table of the strings a long-lived decoder keeps
// seeing — a subscriber's few stream keys and query names, repeated in every
// answer, or a producer's event types and sources, repeated in every ingest
// batch — so that decoding one costs a lookup on the payload bytes, not an
// allocation. The zero value is ready to use; it is not safe for concurrent
// use. Past maxInterned entries the table starts over, so a peer cycling
// through fresh names cannot grow it, and strings longer than maxInternedLen
// are never kept.
type Interner struct {
	names map[string]string
	// stream is the Stream of the last answer decoded: a window's answers
	// to every query carry the same stream key back to back, so a
	// byte-equal key is returned without a table lookup. Like the table,
	// it never holds a string longer than maxInternedLen.
	stream string
}

const (
	maxInterned    = 4096
	maxInternedLen = 256
)

// intern returns b as a string, shared with earlier calls where it can be.
func (in *Interner) intern(b []byte) string {
	if in == nil || len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := in.names[string(b)]; ok { // no allocation: the compiler elides the conversion
		return s
	}
	if in.names == nil {
		in.names = make(map[string]string)
	} else if len(in.names) >= maxInterned {
		clear(in.names)
	}
	s := string(b)
	in.names[s] = s
	return s
}

// internStream is intern for an answer's Stream, checking the last one first.
func (in *Interner) internStream(b []byte) string {
	if in == nil {
		return string(b)
	}
	if string(b) == in.stream {
		return in.stream
	}
	s := in.intern(b)
	if len(b) <= maxInternedLen {
		in.stream = s
	}
	return s
}

// DecodeAnswer is the package-level DecodeAnswer decoding into *a, with the
// answer's Stream and Query drawn from the table: the same Answer, field for
// field, and the same errors. Every field of *a is overwritten, so a read
// loop can decode each frame into one reused Answer; on error *a is
// unspecified. A nil Interner decodes plainly.
func (in *Interner) DecodeAnswer(b []byte, a *Answer) error {
	d := decoder{b: b, names: in}
	a.Sub = d.uvarint()
	a.Seq = d.uvarint()
	a.Stream = d.stream()
	a.Query = d.string()
	a.Epoch = d.uvarint()
	a.WindowIndex = d.uvarint()
	a.Start = d.varint()
	a.End = d.varint()
	bits := d.byte()
	if d.err == nil && bits&^byte(7) != 0 {
		return fmt.Errorf("wire: answer: unknown flag bits %#x", bits)
	}
	a.Detected = bits&1 != 0
	a.Suppressed = bits&2 != 0
	a.Gap = bits&4 != 0
	a.SpentEpsilon = d.float()
	a.RemainingEpsilon = d.float()
	a.GapFrom = d.uvarint()
	a.TraceNanos = 0
	if d.err == nil && !a.Gap && a.GapFrom != 0 {
		return fmt.Errorf("wire: answer: gap-from %d without gap flag", a.GapFrom)
	}
	if d.err == nil && a.Gap && (a.GapFrom == 0 || a.GapFrom > a.Seq) {
		return fmt.Errorf("wire: answer: gap range [%d, %d] invalid", a.GapFrom, a.Seq)
	}
	return d.finish("answer")
}

// DecodeIngest is the package-level DecodeIngest with every event's Type and
// Source drawn from the table: the same Ingest, event for event, and the same
// errors. A session decoding its peer's batches through one table pays a map
// lookup per name instead of an allocation. A nil Interner decodes plainly.
func (in *Interner) DecodeIngest(b []byte, evs []event.Event) (Ingest, error) {
	var ing Ingest
	d := decoder{b: b}
	ing.Req = d.uvarint()
	if d.err != nil {
		return ing, d.finish("ingest")
	}
	var name func([]byte) string
	if in != nil {
		name = in.intern
	}
	var err error
	ing.Events, err = event.DecodeBinaryBatchWith(evs, d.b[d.off:], name)
	if err != nil {
		return ing, fmt.Errorf("wire: ingest: %w", err)
	}
	return ing, nil
}

// AppendAck appends a's payload encoding to dst.
func AppendAck(dst []byte, a Ack) []byte {
	dst = binary.AppendUvarint(dst, a.Req)
	return binary.AppendUvarint(dst, a.N)
}

// DecodeAck decodes an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	var a Ack
	d := decoder{b: b}
	a.Req = d.uvarint()
	a.N = d.uvarint()
	return a, d.finish("ack")
}

// AppendError appends e's payload encoding to dst.
func AppendError(dst []byte, e Error) []byte {
	dst = binary.AppendUvarint(dst, e.Req)
	dst = append(dst, e.Code)
	dst = appendString(dst, e.Msg)
	return binary.AppendUvarint(dst, e.RetryAfterMillis)
}

// DecodeError decodes an Error payload.
func DecodeError(b []byte) (Error, error) {
	var e Error
	d := decoder{b: b}
	e.Req = d.uvarint()
	e.Code = d.byte()
	e.Msg = d.string()
	e.RetryAfterMillis = d.uvarint()
	return e, d.finish("error")
}

// AppendGoodbye appends g's payload encoding to dst.
func AppendGoodbye(dst []byte, g Goodbye) []byte {
	return appendString(dst, g.Reason)
}

// DecodeGoodbye decodes a Goodbye payload.
func DecodeGoodbye(b []byte) (Goodbye, error) {
	var g Goodbye
	d := decoder{b: b}
	g.Reason = d.string()
	return g, d.finish("goodbye")
}

// AppendPing appends p's payload encoding to dst.
func AppendPing(dst []byte, p Ping) []byte {
	return binary.AppendUvarint(dst, p.Nonce)
}

// DecodePing decodes a Ping payload.
func DecodePing(b []byte) (Ping, error) {
	var p Ping
	d := decoder{b: b}
	p.Nonce = d.uvarint()
	return p, d.finish("ping")
}

// AppendPong appends p's payload encoding to dst.
func AppendPong(dst []byte, p Pong) []byte {
	return binary.AppendUvarint(dst, p.Nonce)
}

// AppendResume appends r's payload encoding to dst.
func AppendResume(dst []byte, r Resume) []byte {
	dst = binary.AppendUvarint(dst, r.Req)
	dst = appendString(dst, r.Session)
	dst = binary.AppendUvarint(dst, uint64(len(r.Subs)))
	for _, s := range r.Subs {
		dst = binary.AppendUvarint(dst, s.ID)
		dst = binary.AppendUvarint(dst, s.LastSeq)
	}
	return dst
}

// DecodeResume decodes a Resume payload.
func DecodeResume(b []byte) (Resume, error) {
	var r Resume
	d := decoder{b: b}
	r.Req = d.uvarint()
	r.Session = d.string()
	n := d.uvarint()
	// Each entry is at least two bytes of varint, so a count beyond half
	// the remaining payload is hostile.
	if d.err == nil && n > uint64(len(d.b)-d.off)/2+1 {
		return r, fmt.Errorf("wire: resume: subscription count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Subs = append(r.Subs, ResumeSub{ID: d.uvarint(), LastSeq: d.uvarint()})
	}
	return r, d.finish("resume")
}

// AppendResumed appends r's payload encoding to dst.
func AppendResumed(dst []byte, r Resumed) []byte {
	dst = binary.AppendUvarint(dst, r.Req)
	dst = appendString(dst, r.Session)
	dst = binary.AppendUvarint(dst, uint64(len(r.Subs)))
	for _, id := range r.Subs {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// DecodeResumed decodes a Resumed payload.
func DecodeResumed(b []byte) (Resumed, error) {
	var r Resumed
	d := decoder{b: b}
	r.Req = d.uvarint()
	r.Session = d.string()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off)+1 {
		return r, fmt.Errorf("wire: resumed: subscription count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Subs = append(r.Subs, d.uvarint())
	}
	return r, d.finish("resumed")
}

// decoder walks a payload, latching the first error so call sites read as
// straight-line field lists.
type decoder struct {
	b   []byte
	off int
	err error
	// names, when set, is where string() draws its results from.
	names *Interner
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = fmt.Errorf("missing byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// bytes reads a length-prefixed string in place; ok is false once the
// decoder has failed.
func (d *decoder) bytes() (b []byte, ok bool) {
	if d.err != nil {
		return nil, false
	}
	l, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("bad string length at offset %d", d.off)
		return nil, false
	}
	if l > maxStringLen || l > uint64(len(d.b)-d.off-n) {
		d.err = fmt.Errorf("string length %d at offset %d exceeds payload", l, d.off)
		return nil, false
	}
	b = d.b[d.off+n : d.off+n+int(l)]
	d.off += n + int(l)
	return b, true
}

func (d *decoder) string() string {
	if b, ok := d.bytes(); ok {
		return d.names.intern(b)
	}
	return ""
}

// stream is string for an answer's Stream, checking the Interner's last one first.
func (d *decoder) stream() string {
	if b, ok := d.bytes(); ok {
		return d.names.internStream(b)
	}
	return ""
}

func (d *decoder) fixed32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 4 {
		d.err = fmt.Errorf("short u32 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.err = fmt.Errorf("short float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// finish reports the latched error, or a trailing-bytes violation when the
// payload was not fully consumed.
func (d *decoder) finish(frame string) error {
	if d.err != nil {
		return fmt.Errorf("wire: %s: %w", frame, d.err)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %s: %d trailing bytes", frame, len(d.b)-d.off)
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}
