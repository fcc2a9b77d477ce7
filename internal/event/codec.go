package event

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Wire formats for events: a compact binary codec for the network serving
// layer (internal/wire frames carry batches of binary events) and JSON, the
// form of the "pending" events in checkpoints written before they held type
// tallies. JSON uses Event's field tags; keys of older encodings ("wall",
// "attrs") are ignored on decode.

// UnmarshalJSON implements json.Unmarshaler, rejecting an event without a
// type.
func (e *Event) UnmarshalJSON(data []byte) error {
	type plain Event // no methods, so no recursion
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.Type == "" {
		return fmt.Errorf("event: missing type")
	}
	*e = Event(p)
	return nil
}

// Binary codec. One event encodes as:
//
//	flags   u8       (presence of source)
//	type    string   (uvarint length + bytes)
//	time    varint
//	source  string   — only when flagSource
//
// Flag bits 0x02 (wall time) and 0x04 (attributes) are retired: older
// encoders set them, and the decoder refuses them as unknown flags. The
// codec is self-delimiting: decodeBinary reports how many bytes one event
// consumed, so batches are plain concatenations.
const flagSource = 1

// maxBinaryStringLen bounds every length prefix the decoder will accept, so
// a corrupt or hostile length byte cannot force a huge allocation.
const maxBinaryStringLen = 1 << 20

// AppendBinary appends e's compact binary encoding to dst and returns the
// extended slice.
func AppendBinary(dst []byte, e Event) []byte {
	var flags byte
	if e.Source != "" {
		flags |= flagSource
	}
	dst = append(dst, flags)
	dst = appendBinaryString(dst, string(e.Type))
	dst = binary.AppendVarint(dst, int64(e.Time))
	if flags&flagSource != 0 {
		dst = appendBinaryString(dst, e.Source)
	}
	return dst
}

// decodeBinary decodes one binary event from the front of b, returning the
// event and the number of bytes consumed. It draws the type and source
// strings from name, or converts them plainly when name is nil. Damaged
// input surfaces as an error, never a panic or an oversized allocation.
func decodeBinary(b []byte, name func([]byte) string) (Event, int, error) {
	var e Event
	if len(b) == 0 {
		return e, 0, fmt.Errorf("event: empty binary input")
	}
	flags := b[0]
	if flags&^flagSource != 0 {
		return e, 0, fmt.Errorf("event: unknown binary flags %#x", flags)
	}
	off := 1
	typ, n, err := decodeBinaryString(b[off:])
	if err != nil {
		return e, 0, fmt.Errorf("event: type: %w", err)
	}
	if len(typ) == 0 {
		return e, 0, fmt.Errorf("event: empty type")
	}
	off += n
	e.Type = Type(toString(typ, name))
	ts, n := binary.Varint(b[off:])
	if n <= 0 {
		return e, 0, fmt.Errorf("event: bad timestamp varint")
	}
	off += n
	e.Time = Timestamp(ts)
	if flags&flagSource != 0 {
		src, n, err := decodeBinaryString(b[off:])
		if err != nil {
			return e, 0, fmt.Errorf("event: source: %w", err)
		}
		off += n
		e.Source = toString(src, name)
	}
	return e, off, nil
}

// AppendBinaryBatch appends a uvarint event count followed by each event's
// binary encoding — the ingest-frame payload of the wire protocol.
func AppendBinaryBatch(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		dst = AppendBinary(dst, evs[i])
	}
	return dst
}

// DecodeBinaryBatch decodes an AppendBinaryBatch payload, appending into
// dst (which may be a reused scratch slice) and returning the extended
// slice. The whole input must be consumed: trailing bytes are an error.
func DecodeBinaryBatch(dst []Event, b []byte) ([]Event, error) {
	return DecodeBinaryBatchWith(dst, b, nil)
}

// DecodeBinaryBatchWith is DecodeBinaryBatch drawing every event's type and
// source from name, which is handed the string's bytes in b and must not
// retain them — a long-lived decoder passes a lookup into a table of the
// names it keeps seeing, so a repeated name costs no allocation. A nil name
// converts each string plainly: DecodeBinaryBatch. The events and errors are
// the same either way, provided name returns the string of its bytes.
func DecodeBinaryBatchWith(dst []Event, b []byte, name func([]byte) string) ([]Event, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, fmt.Errorf("event: bad batch count")
	}
	b = b[n:]
	// Each event costs at least 3 bytes (flags, 1-byte type, time), so a
	// hostile count larger than the payload could carry is rejected before
	// any allocation grows with it.
	if cnt > uint64(len(b)/3)+1 {
		return dst, fmt.Errorf("event: batch count %d exceeds payload", cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		e, n, err := decodeBinary(b, name)
		if err != nil {
			return dst, fmt.Errorf("event: batch event %d: %w", i, err)
		}
		b = b[n:]
		dst = append(dst, e)
	}
	if len(b) != 0 {
		return dst, fmt.Errorf("event: %d trailing bytes after batch", len(b))
	}
	return dst, nil
}

func appendBinaryString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBinaryString returns the bytes of the length-prefixed string at the
// front of b and how many bytes it took.
func decodeBinaryString(b []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("bad string length")
	}
	if l > maxBinaryStringLen || l > uint64(len(b)-n) {
		return nil, 0, fmt.Errorf("string length %d exceeds input", l)
	}
	return b[n : n+int(l)], n + int(l), nil
}

// toString converts decoded string bytes through name, or plainly when name
// is nil.
func toString(b []byte, name func([]byte) string) string {
	if name != nil {
		return name(b)
	}
	return string(b)
}
