package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// buildSegment frames the given records into a valid segment image, the
// seed shape the fuzzer mutates.
func buildSegment(firstLSN uint64, shard int, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	var hdr [segmentHeaderSize]byte
	copy(hdr[:], segmentMagic)
	binary.LittleEndian.PutUint64(hdr[8:], firstLSN)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(shard+1))
	buf.Write(hdr[:])
	for _, p := range payloads {
		var fh [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(fh[:], uint32(len(p)))
		binary.LittleEndian.PutUint32(fh[4:], crc32.ChecksumIEEE(p))
		buf.Write(fh[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// windowPayload encodes one KindWindow record payload like StageWindow does.
func windowPayload(stream string, idx, start int64, dec Decision, charge float64, epoch uint64) []byte {
	b := []byte{byte(KindWindow)}
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, uint64(idx))
	b = binary.AppendVarint(b, start)
	b = append(b, byte(dec))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(charge))
	b = append(b, stream...)
	return b
}

// FuzzSegmentDecode feeds arbitrary bytes to the segment parser: it must
// never panic or misparse — every record it returns must carry a valid CRC
// frame from the input, and any damage must surface as a clean truncation,
// never as a record the writer did not frame.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segmentMagic))
	f.Add(buildSegment(1, 0,
		windowPayload("stream-a", 0, 0, DecisionAdmitted, 0.5, 1),
		windowPayload("stream-a", 1, 10, DecisionDenied, 0, 1),
		append([]byte{byte(KindEvict)}, "stream-a"...),
	))
	ctl := []byte{byte(KindRotation)}
	ctl = binary.AppendUvarint(ctl, 3)
	ctl = binary.AppendUvarint(ctl, 4)
	reg := []byte{byte(KindRegistration), OpRegisterQuery}
	reg = binary.AppendUvarint(reg, 5)
	reg = append(reg, "q"...)
	f.Add(buildSegment(7, ControlShard, ctl, reg))
	// A valid prefix with a torn tail.
	whole := buildSegment(1, 2, windowPayload("s", 3, 30, DecisionSuppressed, 0, 0))
	f.Add(whole[:len(whole)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := parseSegment("fuzz.log", data)
		if err != nil {
			return // short header / bad magic: rejected outright, fine
		}
		// Re-walk the frames independently: every record the parser
		// returned must sit in a CRC-valid frame at the expected offset
		// and decode to the same fields.
		off := segmentHeaderSize
		for i, rec := range sd.records {
			if len(data)-off < frameHeaderSize {
				t.Fatalf("record %d past data end", i)
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			crc := binary.LittleEndian.Uint32(data[off+4:])
			if length > maxRecordLen || length > len(data)-off-frameHeaderSize {
				t.Fatalf("record %d frame length %d not parseable, yet returned", i, length)
			}
			payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
			if crc32.ChecksumIEEE(payload) != crc {
				t.Fatalf("record %d returned from CRC-mismatched frame", i)
			}
			again, err := decodeRecord(payload)
			if err != nil {
				t.Fatalf("record %d undecodable on re-decode: %v", i, err)
			}
			again.Shard = sd.shard
			again.LSN = sd.firstLSN + uint64(i)
			if rec != again {
				t.Fatalf("record %d mismatch: %+v vs %+v", i, rec, again)
			}
			if rec.LSN != sd.firstLSN+uint64(i) {
				t.Fatalf("record %d LSN %d, want %d", i, rec.LSN, sd.firstLSN+uint64(i))
			}
			off += frameHeaderSize + length
		}
		// Whatever follows the accepted prefix must be damage or nothing:
		// if the parser stopped early it must have flagged truncation.
		if off != len(data) && !sd.truncated {
			t.Fatalf("parser stopped at %d/%d without flagging truncation", off, len(data))
		}
		if off == len(data) && sd.truncated {
			t.Fatal("clean segment flagged truncated")
		}
	})
}
