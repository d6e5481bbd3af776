package wire

import (
	"testing"
	"time"
)

// FuzzParseRequest checks the request decoder never panics and that any
// buffer it accepts round-trips exactly.
func FuzzParseRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{ReqID: 1}))
	f.Add([]byte{})
	f.Add([]byte("garbage that is long enough to reach the header parser"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		re := AppendRequest(nil, req)
		back, err := ParseRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to parse: %v", err)
		}
		if back != req {
			t.Fatalf("round trip changed request: %+v vs %+v", back, req)
		}
	})
}

// FuzzParseRequestHLC checks the v3 request decoder never panics and
// that any buffer it accepts round-trips byte-exactly — the v3 layout is
// fixed-size with a single canonical form, so encode∘decode is the
// identity on accepted prefixes.
func FuzzParseRequestHLC(f *testing.F) {
	f.Add(AppendRequestHLC(nil, RequestHLC{ReqID: 1}))
	f.Add([]byte{})
	f.Add(make([]byte, RequestHLCSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequestHLC(data)
		if err != nil {
			return
		}
		re := AppendRequestHLC(nil, req)
		for i, b := range re {
			if data[i] != b {
				t.Fatalf("accepted %x but re-encodes as %x", data[:RequestHLCSize], re)
			}
		}
	})
}

// FuzzParseResponse checks the response decoder never panics and that any
// buffer it accepts round-trips exactly.
func FuzzParseResponse(f *testing.F) {
	seed, err := AppendResponse(nil, Response{
		ReqID: 7, ServerID: 8, Clock: time.Unix(9, 10), MaxError: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, ResponseSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		if err != nil {
			return
		}
		re, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted response failed to re-encode: %v", err)
		}
		back, err := ParseResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response failed to parse: %v", err)
		}
		if back.ReqID != resp.ReqID || back.ServerID != resp.ServerID ||
			!back.Clock.Equal(resp.Clock) || back.MaxError != resp.MaxError ||
			back.Unsynchronized != resp.Unsynchronized {
			t.Fatalf("round trip changed response: %+v vs %+v", back, resp)
		}
	})
}

// FuzzResponseID holds ResponseID to ParseResponse: for any bytes it
// fails exactly when ParseResponse fails, with the same error, and
// otherwise returns the same request ID.
func FuzzResponseID(f *testing.F) {
	seed, err := AppendResponse(nil, Response{
		ReqID: 7, ServerID: 8, Clock: time.Unix(9, 10), MaxError: 11, Unsynchronized: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:ResponseSize-1])
	f.Add([]byte{})
	f.Add(make([]byte, ResponseSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, perr := ParseResponse(data)
		id, ierr := ResponseID(data)
		if (perr == nil) != (ierr == nil) || (perr != nil && perr.Error() != ierr.Error()) {
			t.Fatalf("ParseResponse error %v, ResponseID error %v", perr, ierr)
		}
		if perr == nil && id != resp.ReqID {
			t.Fatalf("ResponseID %d, ParseResponse ReqID %d", id, resp.ReqID)
		}
	})
}
