// Package wire defines the binary protocol of the real (UDP) time
// service: a fixed-size request and a fixed-size response carrying the
// <C, E> pair of rule MM-1 in nanoseconds. The format is versioned,
// validated on decode, and deliberately tiny — a time service must not
// add serialization latency to the delays it is trying to bound.
//
// Layout (big endian):
//
//	common header (16 bytes):
//	  magic    uint32  "DTTP"
//	  version  uint8   1
//	  type     uint8   1 = request, 2 = response
//	  flags    uint8   response: bit 0 = server unsynchronized
//	  reserved uint8   must be zero
//	  reqID    uint64  echoed by the response
//
//	response body (24 bytes):
//	  serverID uint64
//	  clock    int64   server clock, Unix nanoseconds
//	  maxError uint64  maximum error E, nanoseconds
//
//	advertise body (version 2, variable):
//	  count    uint8   number of roster entries (1..MaxAdvertiseEntries)
//	  entries  count × { addrLen u8, addr, gen u64, seq u64, status u8,
//	                     clock f64 bits, maxError f64 bits, delta f64 bits }
//
//	HLC request body (version 3, 16 bytes):
//	  ts       hlc.Timestamp (wall i64, logical u32, node u32)
//
//	HLC response body (version 3, 40 bytes):
//	  serverID uint64
//	  clock    int64   server clock, Unix nanoseconds
//	  maxError uint64  maximum error E, nanoseconds
//	  ts       hlc.Timestamp (wall i64, logical u32, node u32)
//
// Requests and responses are version 1 and never change size, so every
// deployed client keeps working. The advertise (membership heartbeat)
// message requires version 2: a version-1-only endpoint rejects it with
// ErrBadVersion and drops the datagram — the deliberate compatibility
// gate that lets roster-backed peers mix with pre-membership servers.
// Version 3 adds the HLC request/response pair: the same exchange as
// version 1 with a hybrid logical clock timestamp piggybacked in each
// direction, so every RPC doubles as an hlc.Update. v1/v2-only
// endpoints reject the new types with ErrBadVersion; v3 servers keep
// answering v1 requests, so mixed fleets interoperate.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"disttime/internal/hlc"
)

// Protocol constants.
const (
	Magic   uint32 = 0x44545450 // "DTTP"
	Version uint8  = 1
	// VersionMembership is the protocol revision that introduced the
	// advertise message. Requests and responses remain at Version.
	VersionMembership uint8 = 2
	// VersionHLC is the protocol revision that introduced the HLC
	// request/response pair piggybacking hybrid logical clock timestamps.
	VersionHLC uint8 = 3

	// RequestSize and ResponseSize are the exact wire sizes.
	RequestSize  = 16
	ResponseSize = 40

	// RequestHLCSize and ResponseHLCSize are the exact wire sizes of the
	// version-3 messages: the version-1 layouts plus one hlc.Timestamp.
	RequestHLCSize  = RequestSize + hlc.TimestampSize
	ResponseHLCSize = ResponseSize + hlc.TimestampSize

	// MaxAdvertiseEntries caps the roster entries one advertise message
	// may carry, bounding the datagram size.
	MaxAdvertiseEntries = 64
	// MaxAdvertiseAddr caps the byte length of an advertised address.
	MaxAdvertiseAddr = 255
)

// Message types.
const (
	TypeRequest  uint8 = 1
	TypeResponse uint8 = 2
	// TypeAdvertise is a membership heartbeat: a digest of the sender's
	// roster, entries carrying each member's advertised <C, E> quality.
	// Requires VersionMembership.
	TypeAdvertise uint8 = 3
	// TypeRequestHLC and TypeResponseHLC are the version-3 time exchange:
	// the version-1 request/response with an hlc.Timestamp piggybacked in
	// each direction. Require VersionHLC.
	TypeRequestHLC  uint8 = 4
	TypeResponseHLC uint8 = 5
)

// Response flag bits.
const (
	// FlagUnsynchronized marks a response from a server that cannot
	// currently bound its error; clients must ignore its reading.
	FlagUnsynchronized uint8 = 1 << 0
)

// Decode errors.
var (
	ErrShort      = errors.New("wire: message too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unexpected message type")
	ErrBadField   = errors.New("wire: invalid field")
)

// Request is a time request.
type Request struct {
	// ReqID correlates the response; clients should use unique values.
	ReqID uint64
}

// Response is a server's answer: its reading at receipt of the request.
type Response struct {
	// ReqID echoes the request.
	ReqID uint64
	// ServerID identifies the responding server.
	ServerID uint64
	// Clock is the server's clock at the moment it processed the request.
	Clock time.Time
	// MaxError is the server's maximum error E at that moment.
	MaxError time.Duration
	// Unsynchronized is set when the server cannot bound its error; the
	// Clock and MaxError fields are then advisory only.
	Unsynchronized bool
}

func putHeader(buf []byte, version, typ, flags uint8, reqID uint64) {
	binary.BigEndian.PutUint32(buf[0:4], Magic)
	buf[4] = version
	buf[5] = typ
	buf[6] = flags
	buf[7] = 0
	PutReqID(buf, reqID)
}

// PutReqID writes reqID into the request-ID field of the encoded
// message at the start of buf, leaving the rest of it as it is. An
// encoding of one message with a zero ID, copied and given each ID in
// turn, is how a batch of messages that differ only in their IDs is
// written.
func PutReqID(buf []byte, reqID uint64) {
	binary.BigEndian.PutUint64(buf[8:16], reqID)
}

// parseHeader validates the common header. The required version is a
// property of the message type: requests and responses are version 1,
// advertisements version 2 — so a v1-only implementation rejects
// advertise datagrams with ErrBadVersion rather than misparsing them.
func parseHeader(buf []byte, wantType, wantVersion uint8) (flags uint8, reqID uint64, err error) {
	if len(buf) < RequestSize {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrShort, len(buf))
	}
	if got := binary.BigEndian.Uint32(buf[0:4]); got != Magic {
		return 0, 0, fmt.Errorf("%w: %#x", ErrBadMagic, got)
	}
	if buf[4] != wantVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[4])
	}
	if buf[5] != wantType {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrBadType, buf[5], wantType)
	}
	if buf[7] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero reserved byte", ErrBadField)
	}
	return buf[6], binary.BigEndian.Uint64(buf[8:16]), nil
}

// PeekType returns the message type of a datagram that carries a
// plausible protocol header (length and magic check out), letting a
// receiver dispatch before committing to a full parse. ok is false for
// datagrams that are not protocol messages at all.
func PeekType(buf []byte) (typ uint8, ok bool) {
	if len(buf) < RequestSize || binary.BigEndian.Uint32(buf[0:4]) != Magic {
		return 0, false
	}
	return buf[5], true
}

// AppendRequest appends the encoded request to dst and returns the
// extended slice.
func AppendRequest(dst []byte, r Request) []byte {
	var buf [RequestSize]byte
	putHeader(buf[:], Version, TypeRequest, 0, r.ReqID)
	return append(dst, buf[:]...)
}

// ParseRequest decodes a request.
func ParseRequest(buf []byte) (Request, error) {
	flags, reqID, err := parseHeader(buf, TypeRequest, Version)
	if err != nil {
		return Request{}, err
	}
	if flags != 0 {
		return Request{}, fmt.Errorf("%w: request flags %#x", ErrBadField, flags)
	}
	return Request{ReqID: reqID}, nil
}

// AppendResponse appends the encoded response to dst and returns the
// extended slice. A negative MaxError is rejected.
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	if r.MaxError < 0 {
		return nil, fmt.Errorf("%w: negative max error %v", ErrBadField, r.MaxError)
	}
	var buf [ResponseSize]byte
	var flags uint8
	if r.Unsynchronized {
		flags |= FlagUnsynchronized
	}
	putHeader(buf[:], Version, TypeResponse, flags, r.ReqID)
	binary.BigEndian.PutUint64(buf[16:24], r.ServerID)
	binary.BigEndian.PutUint64(buf[24:32], uint64(r.Clock.UnixNano()))
	binary.BigEndian.PutUint64(buf[32:40], uint64(r.MaxError))
	return append(dst, buf[:]...), nil
}

// checkResponse holds a response of the given type to its rules — the
// header, at least size bytes, no flag but FlagUnsynchronized, and an
// E that fits a time.Duration — and returns its request ID. It is the
// one validator of both response versions.
func checkResponse(buf []byte, typ, version uint8, size int) (reqID uint64, err error) {
	flags, reqID, err := parseHeader(buf, typ, version)
	if err != nil {
		return 0, err
	}
	if len(buf) < size {
		return 0, fmt.Errorf("%w: %d bytes", ErrShort, len(buf))
	}
	if flags&^FlagUnsynchronized != 0 {
		return 0, fmt.Errorf("%w: unknown flags %#x", ErrBadField, flags)
	}
	if binary.BigEndian.Uint64(buf[32:40]) > math.MaxInt64 {
		return 0, fmt.Errorf("%w: max error overflows", ErrBadField)
	}
	return reqID, nil
}

// ResponseID checks a response as ParseResponse does and returns only
// its request ID: it fails exactly when ParseResponse fails, without
// decoding the reading. A caller that matches replies to requests and
// reads nothing else uses it.
func ResponseID(buf []byte) (uint64, error) {
	return checkResponse(buf, TypeResponse, Version, ResponseSize)
}

// ParseResponse decodes a response.
func ParseResponse(buf []byte) (Response, error) {
	reqID, err := ResponseID(buf)
	if err != nil {
		return Response{}, err
	}
	return Response{
		ReqID:          reqID,
		ServerID:       binary.BigEndian.Uint64(buf[16:24]),
		Clock:          time.Unix(0, int64(binary.BigEndian.Uint64(buf[24:32]))),
		MaxError:       time.Duration(binary.BigEndian.Uint64(buf[32:40])),
		Unsynchronized: buf[6]&FlagUnsynchronized != 0,
	}, nil
}

// RequestHLC is a version-3 time request: the version-1 exchange with
// the client's hybrid logical clock timestamp piggybacked, so the
// server's clock observes the client's causal past.
type RequestHLC struct {
	// ReqID correlates the response; clients should use unique values.
	ReqID uint64
	// TS is the client's HLC timestamp at send time.
	TS hlc.Timestamp
}

// ResponseHLC is a version-3 response: the version-1 reading plus the
// server's hybrid logical clock timestamp, issued after folding the
// request's timestamp in — receiving it completes one HLC send/receive
// round trip.
type ResponseHLC struct {
	Response
	// TS is the server's HLC timestamp at reply time.
	TS hlc.Timestamp
}

// AppendRequestHLC appends the encoded version-3 request to dst and
// returns the extended slice.
func AppendRequestHLC(dst []byte, r RequestHLC) []byte {
	var buf [RequestHLCSize]byte
	putHeader(buf[:], VersionHLC, TypeRequestHLC, 0, r.ReqID)
	hlc.PutTimestamp(buf[RequestSize:], r.TS)
	return append(dst, buf[:]...)
}

// ParseRequestHLC decodes a version-3 request.
func ParseRequestHLC(buf []byte) (RequestHLC, error) {
	flags, reqID, err := parseHeader(buf, TypeRequestHLC, VersionHLC)
	if err != nil {
		return RequestHLC{}, err
	}
	if flags != 0 {
		return RequestHLC{}, fmt.Errorf("%w: request flags %#x", ErrBadField, flags)
	}
	if len(buf) < RequestHLCSize {
		return RequestHLC{}, fmt.Errorf("%w: %d bytes", ErrShort, len(buf))
	}
	ts, err := hlc.ParseTimestamp(buf[RequestSize:])
	if err != nil {
		return RequestHLC{}, fmt.Errorf("%w: %v", ErrBadField, err)
	}
	return RequestHLC{ReqID: reqID, TS: ts}, nil
}

// AppendResponseHLC appends the encoded version-3 response to dst and
// returns the extended slice. A negative MaxError is rejected.
func AppendResponseHLC(dst []byte, r ResponseHLC) ([]byte, error) {
	if r.MaxError < 0 {
		return nil, fmt.Errorf("%w: negative max error %v", ErrBadField, r.MaxError)
	}
	var buf [ResponseHLCSize]byte
	var flags uint8
	if r.Unsynchronized {
		flags |= FlagUnsynchronized
	}
	putHeader(buf[:], VersionHLC, TypeResponseHLC, flags, r.ReqID)
	binary.BigEndian.PutUint64(buf[16:24], r.ServerID)
	binary.BigEndian.PutUint64(buf[24:32], uint64(r.Clock.UnixNano()))
	binary.BigEndian.PutUint64(buf[32:40], uint64(r.MaxError))
	hlc.PutTimestamp(buf[ResponseSize:], r.TS)
	return append(dst, buf[:]...), nil
}

// ParseResponseHLC decodes a version-3 response.
func ParseResponseHLC(buf []byte) (ResponseHLC, error) {
	reqID, err := checkResponse(buf, TypeResponseHLC, VersionHLC, ResponseHLCSize)
	if err != nil {
		return ResponseHLC{}, err
	}
	ts, err := hlc.ParseTimestamp(buf[ResponseSize:])
	if err != nil {
		return ResponseHLC{}, fmt.Errorf("%w: %v", ErrBadField, err)
	}
	return ResponseHLC{
		Response: Response{
			ReqID:          reqID,
			ServerID:       binary.BigEndian.Uint64(buf[16:24]),
			Clock:          time.Unix(0, int64(binary.BigEndian.Uint64(buf[24:32]))),
			MaxError:       time.Duration(binary.BigEndian.Uint64(buf[32:40])),
			Unsynchronized: buf[6]&FlagUnsynchronized != 0,
		},
		TS: ts,
	}, nil
}

// MemberEntry is one roster row of an advertise message — the wire form
// of a membership entry. Quantities mirror the in-memory roster: C and E
// are the member's advertised <C, E> reading in Unix seconds (E may be
// +Inf for a member of unknown quality, e.g. one not yet synchronized),
// Delta its claimed drift bound as a fraction.
type MemberEntry struct {
	// Addr is the member's serving address ("host:port"); the roster key.
	Addr string
	// Gen is the member's incarnation number.
	Gen uint64
	// Seq is the within-generation heartbeat sequence.
	Seq uint64
	// Status is the lifecycle state (member.Status values 1..4).
	Status uint8
	// C and E are the advertised reading: clock value and maximum error,
	// in seconds.
	C, E float64
	// Delta is the member's claimed drift bound, in [0, 1).
	Delta float64
}

// memberEntryFixed is the per-entry wire size excluding the address
// bytes: addrLen u8, gen u64, seq u64, status u8, C/E/delta f64 bits.
const memberEntryFixed = 1 + 8 + 8 + 1 + 3*8

// validateMemberEntry rejects entries the roster could not merge.
func validateMemberEntry(e MemberEntry) error {
	if len(e.Addr) == 0 || len(e.Addr) > MaxAdvertiseAddr {
		return fmt.Errorf("%w: address length %d", ErrBadField, len(e.Addr))
	}
	if e.Status < 1 || e.Status > 4 {
		return fmt.Errorf("%w: status %d", ErrBadField, e.Status)
	}
	if math.IsNaN(e.C) || math.IsInf(e.C, 0) {
		return fmt.Errorf("%w: non-finite clock %v", ErrBadField, e.C)
	}
	if math.IsNaN(e.E) || e.E < 0 {
		return fmt.Errorf("%w: invalid max error %v", ErrBadField, e.E)
	}
	if math.IsNaN(e.Delta) || e.Delta < 0 || e.Delta >= 1 {
		return fmt.Errorf("%w: drift bound %v outside [0,1)", ErrBadField, e.Delta)
	}
	return nil
}

// AppendAdvertise appends an encoded advertise message carrying the
// given roster entries and returns the extended slice. The reqID is a
// free-form sender sequence echoed nowhere; it aids packet-level
// debugging. Entries are validated; at least one (the sender's own) and
// at most MaxAdvertiseEntries are required.
func AppendAdvertise(dst []byte, reqID uint64, entries []MemberEntry) ([]byte, error) {
	if len(entries) == 0 || len(entries) > MaxAdvertiseEntries {
		return nil, fmt.Errorf("%w: %d advertise entries", ErrBadField, len(entries))
	}
	var hdr [RequestSize + 1]byte
	putHeader(hdr[:], VersionMembership, TypeAdvertise, 0, reqID)
	hdr[RequestSize] = uint8(len(entries))
	dst = append(dst, hdr[:]...)
	var num [8]byte
	for _, e := range entries {
		if err := validateMemberEntry(e); err != nil {
			return nil, fmt.Errorf("advertise entry %q: %w", e.Addr, err)
		}
		dst = append(dst, uint8(len(e.Addr)))
		dst = append(dst, e.Addr...)
		binary.BigEndian.PutUint64(num[:], e.Gen)
		dst = append(dst, num[:]...)
		binary.BigEndian.PutUint64(num[:], e.Seq)
		dst = append(dst, num[:]...)
		dst = append(dst, e.Status)
		binary.BigEndian.PutUint64(num[:], math.Float64bits(e.C))
		dst = append(dst, num[:]...)
		binary.BigEndian.PutUint64(num[:], math.Float64bits(e.E))
		dst = append(dst, num[:]...)
		binary.BigEndian.PutUint64(num[:], math.Float64bits(e.Delta))
		dst = append(dst, num[:]...)
	}
	return dst, nil
}

// ParseAdvertise decodes an advertise message: header, entry count, and
// every entry, each validated. It returns the sender's reqID and the
// entries (the first is the sender's own row, per the digest convention).
func ParseAdvertise(buf []byte) (reqID uint64, entries []MemberEntry, err error) {
	flags, reqID, err := parseHeader(buf, TypeAdvertise, VersionMembership)
	if err != nil {
		return 0, nil, err
	}
	if flags != 0 {
		return 0, nil, fmt.Errorf("%w: advertise flags %#x", ErrBadField, flags)
	}
	rest := buf[RequestSize:]
	if len(rest) < 1 {
		return 0, nil, fmt.Errorf("%w: missing entry count", ErrShort)
	}
	count := int(rest[0])
	rest = rest[1:]
	if count == 0 || count > MaxAdvertiseEntries {
		return 0, nil, fmt.Errorf("%w: %d advertise entries", ErrBadField, count)
	}
	entries = make([]MemberEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < memberEntryFixed {
			return 0, nil, fmt.Errorf("%w: entry %d truncated", ErrShort, i)
		}
		addrLen := int(rest[0])
		if addrLen == 0 {
			return 0, nil, fmt.Errorf("%w: entry %d empty address", ErrBadField, i)
		}
		if len(rest) < memberEntryFixed+addrLen {
			return 0, nil, fmt.Errorf("%w: entry %d truncated", ErrShort, i)
		}
		rest = rest[1:]
		e := MemberEntry{Addr: string(rest[:addrLen])}
		rest = rest[addrLen:]
		e.Gen = binary.BigEndian.Uint64(rest[0:8])
		e.Seq = binary.BigEndian.Uint64(rest[8:16])
		e.Status = rest[16]
		e.C = math.Float64frombits(binary.BigEndian.Uint64(rest[17:25]))
		e.E = math.Float64frombits(binary.BigEndian.Uint64(rest[25:33]))
		e.Delta = math.Float64frombits(binary.BigEndian.Uint64(rest[33:41]))
		rest = rest[41:]
		if err := validateMemberEntry(e); err != nil {
			return 0, nil, fmt.Errorf("advertise entry %d: %w", i, err)
		}
		entries = append(entries, e)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadField, len(rest))
	}
	return reqID, entries, nil
}
