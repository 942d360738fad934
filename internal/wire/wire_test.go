package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// TestBinFrameCodecRoundTrip: a request header survives start → finish →
// parse, and every response shape survives encode → decode.
func TestBinFrameCodecRoundTrip(t *testing.T) {
	req, start := StartFrame([]byte("xx"), 9, 42)
	req = append(req, "body"...)
	req, err := FinishFrame(req, start)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(req[2:]); int(got) != len(req)-6 {
		t.Fatalf("length prefix %d, payload is %d", got, len(req)-6)
	}
	op, id, body, err := ParseHeader(req[6:])
	if err != nil || op != 9 || id != 42 || string(body) != "body" {
		t.Fatalf("header: op %d id %d body %q, %v", op, id, body, err)
	}

	ok := AppendOK(nil, 7, []float64{3.5, -0.125})
	id, vals, err := DecodeResponse(ok[4:], nil)
	if err != nil || id != 7 || len(vals) != 2 || vals[0] != 3.5 || vals[1] != -0.125 {
		t.Fatalf("OK response: id %d vals %v, %v", id, vals, err)
	}
	er := AppendErr(nil, 9, "it broke")
	id, vals, err = DecodeResponse(er[4:], nil)
	var rerr *RemoteError
	if !errors.As(err, &rerr) || id != 9 || rerr.Msg != "it broke" || vals != nil {
		t.Fatalf("ERR response: id %d vals %v, %v", id, vals, err)
	}
}

// TestBusyRoundTrip: a *BusyError anywhere in an error chain encodes as a
// BUSY frame, decodes back to a *BusyError with the same hint, and keeps
// its line-protocol text byte for byte; any other error is an ERR frame.
func TestBusyRoundTrip(t *testing.T) {
	shed := fmt.Errorf("admitting: %w", &BusyError{RetryAfterMS: 37})
	frame := AppendError(nil, 11, shed)
	if got, want := len(frame), 4+1+8+4; got != want {
		t.Fatalf("busy frame is %d bytes, want %d", got, want)
	}
	id, vals, err := DecodeResponse(frame[4:], nil)
	var busy *BusyError
	if !errors.As(err, &busy) || id != 11 || busy.RetryAfterMS != 37 || vals != nil {
		t.Fatalf("busy response: id %d vals %v, %v", id, vals, err)
	}
	if got, want := busy.Error(), "busy: serving queue full, retry_after_ms=37"; got != want {
		t.Fatalf("busy text %q, want %q", got, want)
	}
	// The hint saturates to its u32 field instead of wrapping.
	if _, _, err := DecodeResponse(AppendBusy(nil, 1, math.MaxInt64)[4:], nil); !errors.As(err, &busy) || busy.RetryAfterMS != math.MaxUint32 {
		t.Fatalf("saturated hint: %v", err)
	}

	frame = AppendError(nil, 12, errors.New("no such model"))
	var rerr *RemoteError
	if _, _, err := DecodeResponse(frame[4:], nil); !errors.As(err, &rerr) || rerr.Msg != "no such model" {
		t.Fatalf("plain error: %v, want a *RemoteError", err)
	}
}

// TestBinFrameDecodeRejectsMalformed: corrupted responses, frame lengths
// and strings fail with errMalformed instead of panicking or mis-slicing,
// and the frame reader refuses an out-of-range length before reading on.
func TestBinFrameDecodeRejectsMalformed(t *testing.T) {
	ok := AppendOK(nil, 5, []float64{1, 2})[4:]
	er := AppendErr(nil, 5, "no")[4:]
	busy := AppendBusy(nil, 5, 3)[4:]
	for name, corrupt := range map[string][]byte{
		"empty":            {},
		"short header":     ok[:5],
		"OK without count": ok[:respHeader+1],
		"OK short values":  ok[:len(ok)-3],
		"OK extra bytes":   append(bytes.Clone(ok), 0),
		"ERR short msg":    er[:len(er)-1],
		"busy short hint":  busy[:len(busy)-1],
		"busy extra bytes": append(bytes.Clone(busy), 0),
		"unknown status":   append([]byte{3}, ok[1:]...),
	} {
		if _, _, err := DecodeResponse(corrupt, nil); !errors.Is(err, errMalformed) {
			t.Errorf("%s: decode gave %v, want errMalformed", name, err)
		}
	}
	if _, _, _, err := ParseHeader(make([]byte, HeaderBytes-1)); !errors.Is(err, errMalformed) {
		t.Errorf("short request header: %v, want errMalformed", err)
	}
	for name, in := range map[string][]byte{
		"truncated length": {1, 0},
		"over cap":         {4, 0, 'a', 'b'},
		"truncated string": {4, 0, 'a'},
	} {
		if _, _, err := U16Str(in, "name", 3); err == nil {
			t.Errorf("U16Str %s: accepted %v", name, in)
		}
	}

	var buf []byte
	for name, length := range map[string]uint32{"zero": 0, "over cap": MaxFrameBytes + 1} {
		in := binary.LittleEndian.AppendUint32(nil, length)
		if _, err := ReadFrame(bytes.NewReader(append(in, 1, 2, 3)), &buf); !errors.Is(err, errMalformed) {
			t.Errorf("%s frame length: %v, want errMalformed", name, err)
		}
	}
	in := binary.LittleEndian.AppendUint32(nil, 8)
	if _, err := ReadFrame(bytes.NewReader(append(in, 1, 2, 3)), &buf); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadDecodeZeroAlloc: the coordinator's receive path — read a frame
// into the connection's buffer, decode it into the caller's scratch —
// allocates nothing once both are warm.
func TestReadDecodeZeroAlloc(t *testing.T) {
	frame := AppendOK(nil, 3, make([]float64, 55))
	rd := bytes.NewReader(frame)
	var buf []byte
	dst := make([]float64, 0, 55)
	roundTrip := func() {
		rd.Reset(frame)
		p, err := ReadFrame(rd, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if id, vals, err := DecodeResponse(p, dst); err != nil || id != 3 || len(vals) != 55 {
			t.Fatalf("decode: id %d, %d values, %v", id, len(vals), err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("frame read + response decode allocate %v/op, want 0", allocs)
	}
}

// FuzzDecodeResponse: any payload decodes to values, a *RemoteError, a
// *BusyError or errMalformed — never a panic — and whatever decodes
// re-encodes to the same bytes. Values are allocated only as far as the
// payload carries them.
func FuzzDecodeResponse(f *testing.F) {
	ok := AppendOK(nil, 7, []float64{3.5, -0.125})[4:]
	er := AppendErr(nil, 9, "it broke")[4:]
	busy := AppendBusy(nil, 11, 250)[4:]
	for _, seed := range [][]byte{ok, er, busy, ok[:len(ok)-3], er[:respHeader+1], busy[:respHeader],
		{}, {statusOK}, {statusBusy, 1, 0, 0, 0, 0, 0, 0, 0}, {statusOK, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, vals, err := DecodeResponse(payload, nil)
		if 8*cap(vals) > len(payload) {
			t.Fatalf("%d-value buffer outgrew a %d-byte payload", cap(vals), len(payload))
		}
		var want []byte
		var rerr *RemoteError
		var busy *BusyError
		switch {
		case err == nil:
			want = AppendOK(nil, id, vals)
		case errors.As(err, &rerr):
			if len(payload) == respHeader+2 { // an empty message decodes to a placeholder
				return
			}
			want = AppendErr(nil, id, rerr.Msg)
		case errors.As(err, &busy):
			want = AppendBusy(nil, id, busy.RetryAfterMS)
		case errors.Is(err, errMalformed):
			return
		default:
			t.Fatalf("decode failed with untyped %v", err)
		}
		if !bytes.Equal(want[4:], payload) {
			t.Fatalf("accepted %x but it re-encodes to %x", payload, want[4:])
		}
	})
}

// FuzzReadFrame: any byte stream reads as a sequence of frames that are
// exactly its bytes, then ends in an I/O error or errMalformed — never a
// panic — and the reused buffer grows only with the bytes that arrived,
// not with an announced length.
func FuzzReadFrame(f *testing.F) {
	two := append(AppendOK(nil, 1, []float64{1}), AppendBusy(nil, 2, 5)...)
	for _, seed := range [][]byte{two, two[:len(two)-2], {0, 0, 0, 0},
		binary.LittleEndian.AppendUint32(nil, MaxFrameBytes),
		binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1),
		append(binary.LittleEndian.AppendUint32(nil, 1<<16), make([]byte, 5000)...)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var buf []byte
		off := 0
		for {
			p, err := ReadFrame(rd, &buf)
			if cap(buf) > 2*minGrow+3*len(data) {
				t.Fatalf("buffer of %d bytes for a %d-byte stream", cap(buf), len(data))
			}
			if err != nil {
				if !errors.Is(err, errMalformed) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("read failed with %v", err)
				}
				return
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if !bytes.Equal(p, data[off+4:off+4+n]) {
				t.Fatalf("frame at %d reads %x, stream holds %x", off, p, data[off+4:off+4+n])
			}
			off += 4 + n
		}
	})
}
