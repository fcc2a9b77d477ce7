package event

import (
	"testing"
)

// FuzzDecodeBinary feeds arbitrary bytes to the binary event decoder: it
// must never panic or over-read, and every event it accepts must survive a
// re-encode/re-decode round trip unchanged. (Byte-level canonicality is not
// asserted: the decoder tolerates non-minimal varints, which our encoder
// never emits.)
func FuzzDecodeBinary(f *testing.F) {
	f.Add(AppendBinary(nil, New("a", 1)))
	f.Add(AppendBinary(nil, New("gps-fix", 42).WithSource("taxi-7")))
	whole := AppendBinary(nil, New("torn", 9).WithSource("s"))
	f.Add(whole[:len(whole)-1])
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := decodeBinary(data, nil)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := AppendBinary(nil, e)
		again, m, err := decodeBinary(enc, nil)
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", e, err)
		}
		if m != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", m, len(enc))
		}
		if e != again {
			t.Fatalf("round trip changed event: %v vs %v", e, again)
		}
	})
}
