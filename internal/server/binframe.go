package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"

	"bismarck/internal/dist"
	"bismarck/internal/serve"
	"bismarck/internal/spec"
	"bismarck/internal/wire"
)

// Binary frames are the negotiated high-rate encoding for pipelined
// point-PREDICT (see proto.go for the "@bin" handshake). internal/wire
// owns the framing, the request header and the response codec, shared
// with the distributed executors; this file owns only the predict body:
//
//	u8  opcode        — 1 = predict
//	u64 LE id         — client-chosen, >= 1 (0 reserved, as in text frames)
//	u16 LE model len  | model name bytes (UTF-8)
//	u16 LE npoints    | u16 LE arity
//	f64 LE × npoints×arity — point values, row-major
//
// and answers with wire's OK (the scores), ERR or BUSY frames.
//
// Batches are rectangular by construction (one arity for the whole
// frame), which is also what the text grammar accepts for a single
// model. The encoding exists to kill the per-request strconv/Sprintf
// and %.6g formatting of the text frames: the server's steady-state
// binary path — decode, admit, score, encode — performs zero heap
// allocations per request, reusing one set of buffers per connection.
const (
	binOpPredict = 1
	binReqHeader = wire.HeaderBytes + 2 // opcode, id, model length
)

// appendBinRequest encodes one predict request frame (length prefix
// included) onto buf. The batch must be rectangular and inside the spec
// caps — the same limits the parser enforces on text frames.
func appendBinRequest(buf []byte, id uint64, model string, points [][]float64) ([]byte, error) {
	if id == 0 {
		return buf, fmt.Errorf("server: frame ids start at 1 (0 is the server's unattributable-error id)")
	}
	if len(model) == 0 || len(model) > math.MaxUint16 {
		return buf, fmt.Errorf("server: binary frame model name length %d out of range", len(model))
	}
	if len(points) == 0 || len(points) > spec.MaxPointBatch {
		return buf, fmt.Errorf("server: binary frame batch of %d points (want 1..%d)", len(points), spec.MaxPointBatch)
	}
	arity := len(points[0])
	if arity == 0 || arity > spec.MaxPointValues {
		return buf, fmt.Errorf("server: binary frame arity %d (want 1..%d)", arity, spec.MaxPointValues)
	}
	for i, row := range points {
		if len(row) != arity {
			return buf, fmt.Errorf("server: binary frames are rectangular: point %d has %d values, point 0 has %d", i, len(row), arity)
		}
	}
	if payload := binReqHeader + len(model) + 4 + 8*len(points)*arity; payload > wire.MaxFrameBytes {
		return buf, fmt.Errorf("server: binary frame payload %d exceeds %d bytes", payload, wire.MaxFrameBytes)
	}
	buf, start := wire.StartFrame(buf, binOpPredict, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(model)))
	buf = append(buf, model...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(points)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(arity))
	for _, row := range points {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return wire.FinishFrame(buf, start)
}

// binRequest is one decoded predict request. Its slices view or reuse
// per-connection backing arrays: the model bytes alias the read buffer
// (valid only until the next frame is read), and flat/points grow to the
// largest batch seen then stay — the zero-allocation steady state.
type binRequest struct {
	id     uint64
	model  []byte
	flat   []float64
	points [][]float64
}

// decode parses payload into r, reusing r's backing arrays. r.id is set
// as soon as the header parses so the caller can attribute errors from
// the rest of the payload to the client's id.
func (r *binRequest) decode(payload []byte) error {
	op, id, rest, err := wire.ParseHeader(payload)
	r.id = id
	if err != nil {
		return err
	}
	if op != binOpPredict {
		return fmt.Errorf("server: unknown binary frame opcode %d", op)
	}
	if r.id == 0 {
		return fmt.Errorf("server: frame id 0 is reserved for unattributable errors; use ids >= 1")
	}
	if r.model, rest, err = wire.U16Str(rest, "model name", math.MaxUint16); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("server: binary frame truncated before its batch shape")
	}
	npoints := int(binary.LittleEndian.Uint16(rest))
	arity := int(binary.LittleEndian.Uint16(rest[2:]))
	if npoints == 0 || npoints > spec.MaxPointBatch {
		return fmt.Errorf("server: binary frame batch of %d points (want 1..%d)", npoints, spec.MaxPointBatch)
	}
	if arity == 0 || arity > spec.MaxPointValues {
		return fmt.Errorf("server: binary frame arity %d (want 1..%d)", arity, spec.MaxPointValues)
	}
	vals := rest[4:]
	if len(vals) != 8*npoints*arity {
		return fmt.Errorf("server: binary frame carries %d value bytes, %d×%d points need %d", len(vals), npoints, arity, 8*npoints*arity)
	}
	need := npoints * arity
	if cap(r.flat) < need {
		r.flat = make([]float64, need)
	}
	r.flat = r.flat[:need]
	for i := range r.flat {
		r.flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	if cap(r.points) < npoints {
		r.points = make([][]float64, npoints)
	}
	r.points = r.points[:npoints]
	for i := range r.points {
		r.points[i] = r.flat[i*arity : (i+1)*arity]
	}
	return nil
}

// binSession is one binary-mode connection's serving state: the decoded
// request, the scores and output buffers, and the memoized model name.
// All of it is reused frame to frame — after warm-up, handling a request
// allocates nothing.
type binSession struct {
	plane  *serve.Plane
	req    binRequest
	scores []float64
	out    []byte
	model  string // memoized: re-made only when the frame's model changes
}

// handle serves one request payload, leaving the response frame in
// b.out. cancel aborts a queued admission wait (connection/server
// teardown); handle reports false only then — every other failure is an
// error frame for the client.
func (b *binSession) handle(payload []byte, cancel <-chan struct{}) bool {
	if err := b.req.decode(payload); err != nil {
		b.out = wire.AppendError(b.out[:0], b.req.id, err)
		return true
	}
	// Scoring wants a string key; pipelining clients hammer one model, so
	// memoize the conversion instead of allocating it per frame (the
	// comparison form below is alloc-free; only a model switch converts).
	if string(b.req.model) != b.model {
		b.model = string(b.req.model)
	}
	if cap(b.scores) < len(b.req.points) {
		b.scores = make([]float64, len(b.req.points))
	}
	b.scores = b.scores[:len(b.req.points)]
	if _, err := b.plane.Do(b.model, cancel, b.req.points, b.scores); err != nil {
		if err == serve.ErrCanceled {
			return false
		}
		b.out = wire.AppendError(b.out[:0], b.req.id, err)
		return true
	}
	b.out = wire.AppendOK(b.out[:0], b.req.id, b.scores)
	return true
}

// serveBinary runs the post-handshake binary loop: read a frame, score it
// synchronously, write the response. Synchronous is deliberate — binary
// mode exists for throughput, where per-request goroutines buy reordering
// nobody asked for at the cost of the zero-allocation path; a client
// wanting server-side overlap opens connections. Requests parked on a
// full admission queue abandon their booking when done (the connection
// ctx's) closes, and write failures close the connection so the read side
// unblocks — the same teardown discipline as the text loop.
//
// Executor opcodes (distributed training, internal/dist) share the
// framing and are routed by the opcode byte before the predict path's
// zero-allocation decode; their shard state is per-connection and is
// released when the loop exits, so a lost coordinator can never leak
// shard heaps past its TCP session.
func (s *TCPServer) serveBinary(conn net.Conn, w *bufio.Writer, wmu *sync.Mutex, done <-chan struct{}) {
	br := bufio.NewReaderSize(conn, 1<<16)
	b := binSession{plane: s.m.plane}
	var ex *dist.Executor // lazily built on the first executor frame
	defer func() {
		if ex != nil {
			ex.Close()
			s.m.execConns.Add(-1)
		}
	}()
	var payload []byte
	for {
		p, err := wire.ReadFrame(br, &payload)
		if err != nil {
			return
		}
		var out []byte
		if isExecOp(p[0]) {
			if ex == nil {
				ex = dist.NewExecutor(buildRegistryTask,
					execGate{g: s.m.execGate, done: done})
				ex.Hooks = s.execHooks
				s.m.execConns.Add(1)
			}
			resp, ok := ex.Handle(p)
			if !ok {
				return
			}
			out = resp
		} else {
			if !b.handle(p, done) {
				return
			}
			out = b.out
		}
		wmu.Lock()
		_, werr := w.Write(out)
		if ferr := w.Flush(); werr == nil {
			werr = ferr
		}
		wmu.Unlock()
		if werr != nil {
			conn.Close()
			return
		}
	}
}
