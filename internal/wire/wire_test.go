package wire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"disttime/internal/hlc"
)

func TestRequestRoundTrip(t *testing.T) {
	buf := AppendRequest(nil, Request{ReqID: 0xdeadbeefcafe})
	if len(buf) != RequestSize {
		t.Fatalf("encoded size = %d, want %d", len(buf), RequestSize)
	}
	got, err := ParseRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != 0xdeadbeefcafe {
		t.Errorf("ReqID = %#x", got.ReqID)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	now := time.Unix(1234567890, 987654321)
	in := Response{
		ReqID:          42,
		ServerID:       7,
		Clock:          now,
		MaxError:       250 * time.Millisecond,
		Unsynchronized: true,
	}
	buf, err := AppendResponse(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != ResponseSize {
		t.Fatalf("encoded size = %d, want %d", len(buf), ResponseSize)
	}
	got, err := ParseResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != in.ReqID || got.ServerID != in.ServerID ||
		!got.Clock.Equal(in.Clock) || got.MaxError != in.MaxError ||
		got.Unsynchronized != in.Unsynchronized {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestAppendResponseRejectsNegativeError(t *testing.T) {
	_, err := AppendResponse(nil, Response{MaxError: -1})
	if !errors.Is(err, ErrBadField) {
		t.Errorf("error = %v, want ErrBadField", err)
	}
}

func TestParseRequestErrors(t *testing.T) {
	valid := AppendRequest(nil, Request{ReqID: 1})
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{name: "short", mutate: func(b []byte) []byte { return b[:10] }, want: ErrShort},
		{name: "empty", mutate: func([]byte) []byte { return nil }, want: ErrShort},
		{
			name:   "bad magic",
			mutate: func(b []byte) []byte { b[0] = 'X'; return b },
			want:   ErrBadMagic,
		},
		{
			name:   "bad version",
			mutate: func(b []byte) []byte { b[4] = 99; return b },
			want:   ErrBadVersion,
		},
		{
			name:   "wrong type",
			mutate: func(b []byte) []byte { b[5] = TypeResponse; return b },
			want:   ErrBadType,
		},
		{
			name:   "reserved set",
			mutate: func(b []byte) []byte { b[7] = 1; return b },
			want:   ErrBadField,
		},
		{
			name:   "request flags set",
			mutate: func(b []byte) []byte { b[6] = 1; return b },
			want:   ErrBadField,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := append([]byte(nil), valid...)
			if _, err := ParseRequest(tt.mutate(buf)); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestParseResponseErrors(t *testing.T) {
	valid, err := AppendResponse(nil, Response{ReqID: 1, Clock: time.Unix(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{name: "short body", mutate: func(b []byte) []byte { return b[:20] }, want: ErrShort},
		{
			name:   "unknown flag",
			mutate: func(b []byte) []byte { b[6] = 0x80; return b },
			want:   ErrBadField,
		},
		{
			name:   "type mismatch",
			mutate: func(b []byte) []byte { b[5] = TypeRequest; return b },
			want:   ErrBadType,
		},
		{
			name: "max error overflow",
			mutate: func(b []byte) []byte {
				for i := 32; i < 40; i++ {
					b[i] = 0xff
				}
				return b
			},
			want: ErrBadField,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := tt.mutate(append([]byte(nil), valid...))
			if _, err := ParseResponse(buf); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
			if _, err := ResponseID(buf); !errors.Is(err, tt.want) {
				t.Errorf("ResponseID error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestResponseRoundTripProperty fuzzes the codec over arbitrary field
// values.
func TestResponseRoundTripProperty(t *testing.T) {
	f := func(reqID, serverID uint64, unixNano int64, maxErrRaw int64, unsync bool) bool {
		maxErr := time.Duration(maxErrRaw)
		if maxErr < 0 {
			maxErr = -maxErr
		}
		if maxErr < 0 { // MinInt64 negation overflow
			maxErr = 0
		}
		in := Response{
			ReqID:          reqID,
			ServerID:       serverID,
			Clock:          time.Unix(0, unixNano),
			MaxError:       maxErr,
			Unsynchronized: unsync,
		}
		buf, err := AppendResponse(nil, in)
		if err != nil {
			return false
		}
		got, err := ParseResponse(buf)
		if err != nil {
			return false
		}
		return got.ReqID == in.ReqID && got.ServerID == in.ServerID &&
			got.Clock.Equal(in.Clock) && got.MaxError == in.MaxError &&
			got.Unsynchronized == in.Unsynchronized
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendReusesDst(t *testing.T) {
	dst := make([]byte, 0, RequestSize)
	out := AppendRequest(dst, Request{ReqID: 5})
	if &out[0] != &dst[:1][0] {
		t.Error("AppendRequest reallocated despite sufficient capacity")
	}
}

// TestRoundTripAllocs holds the codec at zero allocations: one
// request/response encode+decode round trip against retained buffers,
// version 1 and version 3, performs no allocation, nor does rewriting
// a reply's ID and reading it back with ResponseID.
func TestRoundTripAllocs(t *testing.T) {
	reqBuf := make([]byte, 0, RequestHLCSize)
	respBuf := make([]byte, 0, ResponseHLCSize)
	resp := ResponseHLC{
		Response: Response{ServerID: 3, Clock: time.Unix(1_700_000_000, 0), MaxError: 250 * time.Microsecond},
		TS:       hlc.Timestamp{Wall: 1_700_000_000_000_000_000, Logical: 1, Node: 3},
	}
	id := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		id++
		reqBuf = AppendRequest(reqBuf[:0], Request{ReqID: id})
		req, err := ParseRequest(reqBuf)
		if typ, ok := PeekType(reqBuf); err != nil || !ok || typ != TypeRequest {
			t.Fatalf("request: type %d %v, %v", typ, ok, err)
		}
		resp.ReqID = req.ReqID
		if respBuf, err = AppendResponse(respBuf[:0], resp.Response); err != nil {
			t.Fatal(err)
		}
		if got, err := ParseResponse(respBuf); err != nil || got.ReqID != id {
			t.Fatalf("response: %+v, %v", got, err)
		}
		PutReqID(respBuf, id+1)
		if got, err := ResponseID(respBuf); err != nil || got != id+1 {
			t.Fatalf("response ID: %d, %v", got, err)
		}
	}); allocs != 0 {
		t.Errorf("version-1 round trip allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		id++
		reqBuf = AppendRequestHLC(reqBuf[:0], RequestHLC{ReqID: id, TS: hlc.Timestamp{Wall: int64(id), Node: 1}})
		req, err := ParseRequestHLC(reqBuf)
		if err != nil {
			t.Fatal(err)
		}
		resp.ReqID = req.ReqID
		if respBuf, err = AppendResponseHLC(respBuf[:0], resp); err != nil {
			t.Fatal(err)
		}
		if got, err := ParseResponseHLC(respBuf); err != nil || got.ReqID != id || got.TS != resp.TS {
			t.Fatalf("response: %+v, %v", got, err)
		}
	}); allocs != 0 {
		t.Errorf("version-3 round trip allocates %v times, want 0", allocs)
	}
}

func BenchmarkAppendParseResponse(b *testing.B) {
	r := Response{ReqID: 1, ServerID: 2, Clock: time.Unix(3, 4), MaxError: 5}
	buf := make([]byte, 0, ResponseSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = AppendResponse(buf, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseResponse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseCheck compares the two ways a reply is checked: the
// full decode, and the ID alone under the same rules.
func BenchmarkResponseCheck(b *testing.B) {
	buf, err := AppendResponse(nil, Response{ReqID: 1, ServerID: 2, Clock: time.Unix(3, 4), MaxError: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ParseResponse", func(b *testing.B) {
		for range b.N {
			if _, err := ParseResponse(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ResponseID", func(b *testing.B) {
		for range b.N {
			if _, err := ResponseID(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
