package event

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// Wire formats for events: a compact binary codec for the network serving
// layer (internal/wire frames carry batches of binary events) and a JSON
// codec, which decodes the events of checkpoints written before they held
// type tallies. Both round-trip all event fields including typed attributes.

// jsonEvent is the serialized form.
type jsonEvent struct {
	Type   string               `json:"type"`
	Time   int64                `json:"time"`
	Wall   *time.Time           `json:"wall,omitempty"`
	Source string               `json:"source,omitempty"`
	Attrs  map[string]jsonValue `json:"attrs,omitempty"`
}

type jsonValue struct {
	Kind string `json:"kind"`
	// Exactly one of the payload fields is set, per Kind.
	Int    *int64   `json:"int,omitempty"`
	Float  *float64 `json:"float,omitempty"`
	String *string  `json:"string,omitempty"`
	Bool   *bool    `json:"bool,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	je := jsonEvent{Type: string(e.Type), Time: int64(e.Time), Source: e.Source}
	if !e.Wall.IsZero() {
		w := e.Wall
		je.Wall = &w
	}
	if len(e.Attrs) > 0 {
		je.Attrs = make(map[string]jsonValue, len(e.Attrs))
		for k, v := range e.Attrs {
			jv, err := toJSONValue(v)
			if err != nil {
				return nil, fmt.Errorf("event: attribute %q: %w", k, err)
			}
			je.Attrs[k] = jv
		}
	}
	return json.Marshal(je)
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(data []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	if je.Type == "" {
		return fmt.Errorf("event: missing type")
	}
	out := Event{Type: Type(je.Type), Time: Timestamp(je.Time), Source: je.Source}
	if je.Wall != nil {
		out.Wall = *je.Wall
	}
	if len(je.Attrs) > 0 {
		out.Attrs = make(map[string]Value, len(je.Attrs))
		for k, jv := range je.Attrs {
			v, err := fromJSONValue(jv)
			if err != nil {
				return fmt.Errorf("event: attribute %q: %w", k, err)
			}
			out.Attrs[k] = v
		}
	}
	*e = out
	return nil
}

func toJSONValue(v Value) (jsonValue, error) {
	switch v.Kind() {
	case KindInt:
		i, _ := v.AsInt()
		return jsonValue{Kind: "int", Int: &i}, nil
	case KindFloat:
		f, _ := v.AsFloat()
		return jsonValue{Kind: "float", Float: &f}, nil
	case KindString:
		s, _ := v.AsString()
		return jsonValue{Kind: "string", String: &s}, nil
	case KindBool:
		b, _ := v.AsBool()
		return jsonValue{Kind: "bool", Bool: &b}, nil
	default:
		return jsonValue{}, fmt.Errorf("invalid value kind")
	}
}

func fromJSONValue(jv jsonValue) (Value, error) {
	switch jv.Kind {
	case "int":
		if jv.Int == nil {
			return Value{}, fmt.Errorf("int value missing payload")
		}
		return Int(*jv.Int), nil
	case "float":
		if jv.Float == nil {
			return Value{}, fmt.Errorf("float value missing payload")
		}
		return Float(*jv.Float), nil
	case "string":
		if jv.String == nil {
			return Value{}, fmt.Errorf("string value missing payload")
		}
		return String(*jv.String), nil
	case "bool":
		if jv.Bool == nil {
			return Value{}, fmt.Errorf("bool value missing payload")
		}
		return Bool(*jv.Bool), nil
	default:
		return Value{}, fmt.Errorf("unknown value kind %q", jv.Kind)
	}
}

// Binary codec. One event encodes as:
//
//	flags   u8       (presence of source / wall / attrs)
//	type    string   (uvarint length + bytes)
//	time    varint
//	source  string             — only when flagSource
//	wall    varint unix-nanos  — only when flagWall
//	nattrs  uvarint            — only when flagAttrs
//	  key   string, kind u8, payload (int: varint, float: u64 LE bits,
//	                                  string: string, bool: u8)
//
// Attributes encode sorted by key, so equal events produce identical bytes.
// The codec is self-delimiting: DecodeBinary reports how many bytes one
// event consumed, so batches are plain concatenations.
const (
	flagSource = 1 << iota
	flagWall
	flagAttrs
)

// maxBinaryStringLen bounds every length prefix DecodeBinary will accept, so
// a corrupt or hostile length byte cannot force a huge allocation.
const maxBinaryStringLen = 1 << 20

// AppendBinary appends e's compact binary encoding to dst and returns the
// extended slice.
func AppendBinary(dst []byte, e Event) []byte {
	var flags byte
	if e.Source != "" {
		flags |= flagSource
	}
	if !e.Wall.IsZero() {
		flags |= flagWall
	}
	if len(e.Attrs) > 0 {
		flags |= flagAttrs
	}
	dst = append(dst, flags)
	dst = appendBinaryString(dst, string(e.Type))
	dst = binary.AppendVarint(dst, int64(e.Time))
	if flags&flagSource != 0 {
		dst = appendBinaryString(dst, e.Source)
	}
	if flags&flagWall != 0 {
		dst = binary.AppendVarint(dst, e.Wall.UnixNano())
	}
	if flags&flagAttrs != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Attrs)))
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = appendBinaryString(dst, k)
			v := e.Attrs[k]
			dst = append(dst, byte(v.Kind()))
			switch v.Kind() {
			case KindInt:
				i, _ := v.AsInt()
				dst = binary.AppendVarint(dst, i)
			case KindFloat:
				f, _ := v.AsFloat()
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			case KindString:
				s, _ := v.AsString()
				dst = appendBinaryString(dst, s)
			case KindBool:
				b, _ := v.AsBool()
				var bb byte
				if b {
					bb = 1
				}
				dst = append(dst, bb)
			}
		}
	}
	return dst
}

// DecodeBinary decodes one binary event from the front of b, returning the
// event and the number of bytes consumed. Damaged input surfaces as an
// error, never a panic or an oversized allocation.
func DecodeBinary(b []byte) (Event, int, error) {
	var e Event
	if len(b) == 0 {
		return e, 0, fmt.Errorf("event: empty binary input")
	}
	flags := b[0]
	if flags&^(flagSource|flagWall|flagAttrs) != 0 {
		return e, 0, fmt.Errorf("event: unknown binary flags %#x", flags)
	}
	off := 1
	typ, n, err := decodeBinaryString(b[off:])
	if err != nil {
		return e, 0, fmt.Errorf("event: type: %w", err)
	}
	if typ == "" {
		return e, 0, fmt.Errorf("event: empty type")
	}
	off += n
	e.Type = Type(typ)
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
		e.Source = src
	}
	if flags&flagWall != 0 {
		ns, n := binary.Varint(b[off:])
		if n <= 0 {
			return e, 0, fmt.Errorf("event: bad wall varint")
		}
		off += n
		e.Wall = time.Unix(0, ns)
	}
	if flags&flagAttrs != 0 {
		cnt, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return e, 0, fmt.Errorf("event: bad attr count")
		}
		off += n
		if cnt == 0 || cnt > maxBinaryStringLen {
			return e, 0, fmt.Errorf("event: attr count %d out of range", cnt)
		}
		e.Attrs = make(map[string]Value, cnt)
		for i := uint64(0); i < cnt; i++ {
			key, n, err := decodeBinaryString(b[off:])
			if err != nil {
				return e, 0, fmt.Errorf("event: attr key: %w", err)
			}
			off += n
			if off >= len(b) {
				return e, 0, fmt.Errorf("event: attr %q: missing kind", key)
			}
			kind := ValueKind(b[off])
			off++
			var v Value
			switch kind {
			case KindInt:
				iv, n := binary.Varint(b[off:])
				if n <= 0 {
					return e, 0, fmt.Errorf("event: attr %q: bad int", key)
				}
				off += n
				v = Int(iv)
			case KindFloat:
				if len(b)-off < 8 {
					return e, 0, fmt.Errorf("event: attr %q: short float", key)
				}
				v = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
				off += 8
			case KindString:
				s, n, err := decodeBinaryString(b[off:])
				if err != nil {
					return e, 0, fmt.Errorf("event: attr %q: %w", key, err)
				}
				off += n
				v = String(s)
			case KindBool:
				if off >= len(b) || b[off] > 1 {
					return e, 0, fmt.Errorf("event: attr %q: bad bool", key)
				}
				v = Bool(b[off] == 1)
				off++
			default:
				return e, 0, fmt.Errorf("event: attr %q: unknown kind %d", key, kind)
			}
			if _, dup := e.Attrs[key]; dup {
				return e, 0, fmt.Errorf("event: duplicate attr %q", key)
			}
			e.Attrs[key] = v
		}
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
		e, n, err := DecodeBinary(b)
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

func decodeBinaryString(b []byte) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, fmt.Errorf("bad string length")
	}
	if l > maxBinaryStringLen || l > uint64(len(b)-n) {
		return "", 0, fmt.Errorf("string length %d exceeds input", l)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}
