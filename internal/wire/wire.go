// Package wire is the "@bin" frame codec, the one copy shared by the
// serving plane (internal/server) and the distributed trainer
// (internal/dist). It imports only the standard library, so both sides —
// and the server, which imports dist to route executor frames — build on
// it without a cycle.
//
// A connection starts in the line protocol: the server sends zero or more
// body lines prefixed BodyPrefix, then TermOK. A client that sends the
// line Hello and reads back HelloOK switches the connection to
// length-prefixed binary frames exclusively, both directions:
//
//	u32 LE payload length | payload          (1 ≤ length ≤ MaxFrameBytes)
//
// Every request payload starts with the same header; the opcode picks the
// body (predict's lives in internal/server, the executor ops' in
// internal/dist):
//
//	u8 opcode | u64 LE id | body
//
// Every response payload is one of three shapes:
//
//	0 OK    u64 LE id | u16 LE n | f64 LE × n
//	1 ERR   u64 LE id | u16 LE len | message bytes
//	2 BUSY  u64 LE id | u32 LE retry_after_ms
//
// BUSY is load shedding: the peer is alive and would have served the
// request, so the sender backs off by the hint and retries instead of
// treating it as a failure.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Line-protocol tokens of the handshake that precedes binary framing.
const (
	// BodyPrefix starts every response body line.
	BodyPrefix = "| "
	// TermOK terminates a successful statement response.
	TermOK = "OK"
	// TermErr (plus a space and the message) terminates a failed one.
	TermErr = "ERR"
	// Hello asks for binary framing; the server acknowledges with HelloOK.
	Hello = "@bin"
	// HelloOK acknowledges Hello: binary frames follow.
	HelloOK = "@bin OK"
)

// Response statuses.
const (
	statusOK   = 0
	statusErr  = 1
	statusBusy = 2
)

const (
	// HeaderBytes is the request header: opcode and id.
	HeaderBytes = 1 + 8
	// MaxFrameBytes caps one frame's payload in either direction, like
	// the line protocol's line cap: a peer announcing a huge length must
	// not make us allocate it.
	MaxFrameBytes = 1 << 20

	respHeader = 1 + 8 // status, id
	// minGrow is the first step ReadFrame grows a short buffer by.
	minGrow = 4 << 10
)

// errMalformed marks a frame that breaks the layout: a length out of
// range, a truncated header, a count that disagrees with the bytes, an
// unknown status. Callers treat it as a transport fault.
var errMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errMalformed}, args...)...)
}

// BusyError is the typed load-shedding rejection: an admission queue is
// full. RetryAfterMS is the shedder's estimate (from its service-time
// EWMA and current backlog) of when capacity frees up; clients should
// back off at least that long. It travels as a BUSY frame and renders as
// "busy: ..." on the line protocol, so clients can tell shed load from
// real failures.
type BusyError struct {
	RetryAfterMS int64
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("busy: serving queue full, retry_after_ms=%d", e.RetryAfterMS)
}

// RemoteError is an error the peer reported in a well-formed ERR frame:
// the peer is alive and the request was delivered, so the failure is an
// application verdict, not a transport fault.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// StartFrame begins a request frame on buf: a length placeholder, then
// the header. FinishFrame fills the length in once the body is appended.
func StartFrame(buf []byte, op byte, id uint64) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, op)
	return binary.LittleEndian.AppendUint64(buf, id), start
}

// FinishFrame writes the length prefix of the frame StartFrame began at
// buf[start:], refusing a payload over MaxFrameBytes.
func FinishFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 4
	if n > MaxFrameBytes {
		return buf, fmt.Errorf("wire: frame payload %d exceeds %d bytes", n, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// ParseHeader splits a request payload into opcode, id and body.
func ParseHeader(payload []byte) (op byte, id uint64, body []byte, err error) {
	if len(payload) < HeaderBytes {
		return 0, 0, nil, malformed("request payload %d bytes, header alone is %d", len(payload), HeaderBytes)
	}
	return payload[0], binary.LittleEndian.Uint64(payload[1:]), payload[HeaderBytes:], nil
}

// AppendOK encodes a success response frame (length prefix included).
func AppendOK(buf []byte, id uint64, vals []float64) []byte {
	buf = appendRespHeader(buf, 2+8*len(vals), statusOK, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// AppendErr encodes an error response frame (length prefix included).
// Long messages are truncated to the u16 length field.
func AppendErr(buf []byte, id uint64, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf = appendRespHeader(buf, 2+len(msg), statusErr, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// AppendBusy encodes a busy response frame (length prefix included); the
// hint saturates to the u32 field.
func AppendBusy(buf []byte, id uint64, retryAfterMS int64) []byte {
	buf = appendRespHeader(buf, 4, statusBusy, id)
	return binary.LittleEndian.AppendUint32(buf, uint32(min(max(retryAfterMS, 0), math.MaxUint32)))
}

// AppendError encodes err as the response to id: a BUSY frame when a
// *BusyError is in its chain, an ERR frame carrying its text otherwise.
func AppendError(buf []byte, id uint64, err error) []byte {
	var busy *BusyError
	if errors.As(err, &busy) {
		return AppendBusy(buf, id, busy.RetryAfterMS)
	}
	return AppendErr(buf, id, err.Error())
}

func appendRespHeader(buf []byte, body int, status byte, id uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(respHeader+body))
	buf = append(buf, status)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// DecodeResponse parses a response payload, decoding an OK frame's values
// into dst (reused when large enough, so a steady caller allocates
// nothing). An ERR frame returns *RemoteError and a BUSY frame
// *BusyError, each with the id; a frame that breaks the layout returns an
// error wrapping errMalformed.
func DecodeResponse(payload []byte, dst []float64) (id uint64, vals []float64, err error) {
	if len(payload) < respHeader {
		return 0, nil, malformed("response payload %d bytes, header alone is %d", len(payload), respHeader)
	}
	status := payload[0]
	id = binary.LittleEndian.Uint64(payload[1:])
	rest := payload[respHeader:]
	switch status {
	case statusOK, statusErr:
		if len(rest) < 2 {
			return id, nil, malformed("response truncated before its count")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if status == statusErr {
			if len(rest) != n {
				return id, nil, malformed("response carries %d message bytes, header says %d", len(rest), n)
			}
			if n == 0 {
				return id, nil, &RemoteError{Msg: "unspecified remote error"}
			}
			return id, nil, &RemoteError{Msg: string(rest)}
		}
		if len(rest) != 8*n {
			return id, nil, malformed("response carries %d value bytes, header says %d values", len(rest), n)
		}
		if cap(dst) < n {
			dst = make([]float64, n)
		}
		vals = dst[:n]
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		return id, vals, nil
	case statusBusy:
		if len(rest) != 4 {
			return id, nil, malformed("busy response carries %d hint bytes, want 4", len(rest))
		}
		return id, nil, &BusyError{RetryAfterMS: int64(binary.LittleEndian.Uint32(rest))}
	}
	return id, nil, malformed("unknown response status %d", status)
}

// ReadFrame reads one length-prefixed frame, reusing *buf as the payload
// buffer. The returned slice aliases *buf and is valid until the next
// call. A buffer already large enough makes the read allocation-free; a
// short one grows with the bytes that arrive, not with the announced
// length, so a peer announcing a large frame and sending nothing costs
// nothing.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	// The length prefix is read into *buf too: a local array would escape
	// through the io.Reader call and cost an allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n == 0 || n > MaxFrameBytes {
		return nil, malformed("frame length %d (want 1..%d)", n, MaxFrameBytes)
	}
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n, max(2*len(b), minGrow))-len(b))
		}
		k, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			*buf = b
			if err == io.EOF { // the header promised more
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*buf = b
	return b, nil
}

// U16Str reads a u16-length-prefixed byte string of at most maxLen bytes,
// returning it (aliasing buf) and the rest of buf.
func U16Str(buf []byte, what string, maxLen int) (s, rest []byte, err error) {
	if len(buf) < 2 {
		return nil, nil, malformed("frame truncated before %s length", what)
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if n > maxLen {
		return nil, nil, malformed("%s length %d exceeds %d", what, n, maxLen)
	}
	buf = buf[2:]
	if len(buf) < n {
		return nil, nil, malformed("frame truncated inside %s", what)
	}
	return buf[:n], buf[n:], nil
}
