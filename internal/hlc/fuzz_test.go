package hlc

import (
	"bytes"
	"testing"
)

// FuzzTimestampCodec fuzzes the 16-byte wire encoding in both
// directions: a structured timestamp must round-trip byte-exactly
// through Put/Parse, and arbitrary bytes that Parse accepts must
// re-encode to exactly the input (the codec has a single canonical form,
// so decode∘encode is the identity on its image).
func FuzzTimestampCodec(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint32(0))
	f.Add(uint64(12345678901), uint32(3), uint32(2))
	f.Add(uint64(1)<<62, uint32(1)<<31, ^uint32(0))
	f.Fuzz(func(t *testing.T, wall uint64, logical, node uint32) {
		ts := Timestamp{Wall: int64(wall >> 1), Logical: logical, Node: node}
		enc := encode(ts)
		dec, err := ParseTimestamp(enc)
		if err != nil {
			t.Fatalf("ParseTimestamp(%x): %v", enc, err)
		}
		if dec != ts {
			t.Fatalf("round trip %v -> %v", ts, dec)
		}
		if re := encode(dec); !bytes.Equal(enc, re) {
			t.Fatalf("re-encode differs: %x vs %x", enc, re)
		}
	})
}

// FuzzParseTimestampBytes fuzzes the decoder against raw bytes: any
// accepted buffer must re-encode byte-exactly, and no input may panic.
func FuzzParseTimestampBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, TimestampSize))
	f.Add(encode(Timestamp{Wall: 42, Logical: 7, Node: 3}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		ts, err := ParseTimestamp(buf)
		if err != nil {
			return
		}
		if re := encode(ts); !bytes.Equal(re, buf[:TimestampSize]) {
			t.Fatalf("accepted %x but re-encodes as %x", buf[:TimestampSize], re)
		}
	})
}

// encode returns the wire encoding of ts in a new slice.
func encode(ts Timestamp) []byte {
	buf := make([]byte, TimestampSize)
	PutTimestamp(buf, ts)
	return buf
}
