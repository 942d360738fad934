package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bismarck/internal/engine"
)

// TestBinFrameCodecRoundTrip: every predict request field survives
// encode → decode (the response codec is internal/wire's and is tested
// there).
func TestBinFrameCodecRoundTrip(t *testing.T) {
	points := [][]float64{{1.5, -2.25}, {0, math.MaxFloat64}}
	frame, err := appendBinRequest(nil, 42, "my model", points)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("length prefix %d, payload is %d", got, len(frame)-4)
	}
	var req binRequest
	if err := req.decode(frame[4:]); err != nil {
		t.Fatal(err)
	}
	if req.id != 42 || string(req.model) != "my model" || len(req.points) != 2 {
		t.Fatalf("decoded %+v", req)
	}
	for i := range points {
		for j := range points[i] {
			if req.points[i][j] != points[i][j] {
				t.Fatalf("point[%d][%d] = %v, want %v", i, j, req.points[i][j], points[i][j])
			}
		}
	}
}

// TestBinFrameDecodeRejectsMalformed: corrupted predict payloads error
// instead of panicking or mis-slicing, and the id is attributed whenever
// the header parsed (the frame reader's length cases are internal/wire's).
func TestBinFrameDecodeRejectsMalformed(t *testing.T) {
	good, err := appendBinRequest(nil, 5, "m", [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]

	var req binRequest
	for name, corrupt := range map[string][]byte{
		"empty":            {},
		"short header":     payload[:5],
		"bad opcode":       append([]byte{99}, payload[1:]...),
		"truncated model":  payload[:binReqHeader],
		"truncated values": payload[:len(payload)-3],
		"id zero": func() []byte {
			p := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(p[1:9], 0)
			return p
		}(),
		"zero points": func() []byte {
			p := bytes.Clone(payload)
			binary.LittleEndian.PutUint16(p[binReqHeader+1:], 0)
			return p
		}(),
	} {
		if err := req.decode(corrupt); err == nil {
			t.Errorf("%s: decode accepted %v", name, corrupt)
		}
	}
	// Header-parsed corruption attributes the client's id.
	if err := req.decode(payload[:len(payload)-3]); err == nil || req.id != 5 {
		t.Fatalf("truncated payload should keep id 5 for attribution, got id=%d err=%v", req.id, err)
	}
}

// TestBinSessionErrorFrames: a malformed payload reaching the serving
// loop answers an attributed error frame, and the session keeps serving
// valid frames afterwards.
func TestBinSessionErrorFrames(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
	defer m.Drain()
	seedSignSets(t, m)
	sess := m.NewSession(discard{})
	if err := sess.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}

	good, err := appendBinRequest(nil, 6, "m", [][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := binSession{plane: m.Plane()}

	// Truncated values, but a parseable header: error frame on id 6.
	if !b.handle(good[4:len(good)-3], nil) {
		t.Fatal("handle reported teardown on a malformed payload")
	}
	if f, err := binFrame(b.out[4:]); err != nil || f.ID != 6 || f.Err == "" {
		t.Fatalf("malformed payload response: %+v, %v", f, err)
	}

	// The session still serves.
	if !b.handle(good[4:], nil) {
		t.Fatal("handle reported teardown on a valid payload")
	}
	if f, err := binFrame(b.out[4:]); err != nil || f.ID != 6 || f.Err != "" || len(f.Scores) != 1 || f.Scores[0] < 5 {
		t.Fatalf("valid payload response: %+v, %v", f, err)
	}
}
