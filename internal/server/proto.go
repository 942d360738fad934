package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"bismarck/internal/dist"
	"bismarck/internal/spec"
	"bismarck/internal/wire"
)

// The wire protocol is line-oriented and human-usable over nc:
//
//	C: SELECT vec, label FROM papers TO TRAIN svm INTO m ASYNC;
//	S: | job 1 queued: TRAIN svm INTO "m" (SHOW JOBS / WAIT JOB 1)
//	S: OK
//	C: WAIT JOB 99;
//	S: ERR server: no job 99 (SHOW JOBS lists submitted jobs)
//
// Clients send statements terminated by ';' (multi-line statements are
// fine: the server executes once a line ends with ';', splitting the
// buffer on statement boundaries with the lexer). For every statement the
// server streams zero or more body lines, each prefixed "| ", then exactly
// one terminator line: "OK" or "ERR <one-line message>". The prefix makes
// the framing unambiguous no matter what a statement prints. On connect
// the server sends a banner body line and an OK before reading anything.
//
// Pipelined frames multiplex inline point-PREDICT over the same
// connection: a line "@<id> PREDICT (1.5, 2) USING m" — recognized only
// while no statement is buffered, so a '@' inside a multi-line statement
// stays payload — is answered out of order by exactly one line,
// "@<id> OK <score> <score> ..." or "@<id> ERR <message>". Ids are
// client-chosen (>= 1; the server answers "@0 ERR ..." to frames it
// cannot attribute) and clients keep any number in flight:
//
//	C: @1 PREDICT (0.5, 1.5) USING m
//	C: @2 PREDICT VALUES (1, 2), (3, 4) USING m
//	S: @2 OK 4.97 11.2
//	S: @1 OK 3.12
//
// Frames carry point-PREDICT only (anything else belongs on the line
// protocol), are admission-controlled — an overloaded server answers
// "@<id> ERR busy: ... retry_after_ms=<hint>" synchronously instead of
// queueing unboundedly — and a batched frame is always scored against a
// single model generation.
//
// Binary frames are the negotiated high-rate encoding: a client sends the
// line "@bin" (where a statement could start) and, after the server
// answers "@bin OK", the connection speaks length-prefixed binary frames
// exclusively — see internal/wire for the framing and binframe.go for the
// predict body. The handshake is request/response: the client must not
// send binary bytes until the ack arrives, and any text frames still in
// flight are answered before it.

// maxStatementBytes caps one connection's accumulated statement buffer.
const maxStatementBytes = 1 << 20

// Protocol framing tokens.
const (
	// BodyPrefix starts every response body line.
	BodyPrefix = wire.BodyPrefix
	// TermOK terminates a successful statement response.
	TermOK = wire.TermOK
	// TermErr (plus a space and the message) terminates a failed one.
	TermErr = wire.TermErr
	// FramePrefix starts a pipelined request or response frame.
	FramePrefix = "@"
	// BinHello is the binary-encoding negotiation line; the server
	// acknowledges with BinHelloOK and switches the connection to
	// length-prefixed binary frames.
	BinHello = wire.Hello
	// BinHelloOK acknowledges BinHello.
	BinHelloOK = wire.HelloOK
)

// TCPServer serves a Manager over a listener, one session per connection.
type TCPServer struct {
	m *Manager

	// execHooks instruments per-connection distributed executors
	// (deterministic crash tests); set before Serve.
	execHooks dist.ExecutorHooks

	// ctx is every connection's parent; Close cancels it under mu.
	ctx   context.Context
	stop  context.CancelFunc
	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewTCPServer wraps the manager for serving.
func NewTCPServer(m *Manager) *TCPServer {
	s := &TCPServer{m: m, conns: make(map[net.Conn]struct{})}
	s.ctx, s.stop = context.WithCancel(context.Background())
	return s
}

// Serve accepts connections until Close (returning nil then) or a fatal
// listener error.
func (s *TCPServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("server: already closed")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.ctx.Err() != nil {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, cancels every connection's ctx (its statement
// stops), closes every live connection, and waits for the handlers to
// drain. It does not drain the job scheduler — that is the manager's
// (i.e. the daemon shutdown path's) decision.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.stop()
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// handle speaks the protocol on one connection.
func (s *TCPServer) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	w := bufio.NewWriter(conn)
	var body bytes.Buffer
	sess := s.m.NewSession(&body)

	// wmu serializes whole responses onto the connection: a statement
	// response (body + terminator + flush) is written in one critical
	// section, a frame response in another, so concurrent frame workers
	// interleave with the line protocol only at response granularity and
	// the client-side framing never tears.
	var wmu sync.Mutex
	// cwg tracks this connection's in-flight frame workers; the handler
	// waits them out before the deferred close so no worker writes to a
	// freed connection. ctx — the statements' and the frames' — is
	// canceled first (defers run LIFO): a frame worker still parked on the
	// admission queue gives its booking back instead of burning a scoring
	// slot on an answer nobody will read — the dead-client slot-leak fix.
	var cwg sync.WaitGroup
	ctx, cancel := context.WithCancel(s.ctx)
	defer cwg.Wait()
	defer cancel()

	respond := func(err error) bool {
		wmu.Lock()
		defer wmu.Unlock()
		// Body first (prefixed), then the terminator, then flush: the
		// client reads to the terminator and never guesses at boundaries.
		if body.Len() > 0 {
			for _, line := range strings.Split(strings.TrimRight(body.String(), "\n"), "\n") {
				if _, werr := fmt.Fprintf(w, "%s%s\n", BodyPrefix, line); werr != nil {
					return false
				}
			}
		}
		body.Reset()
		if err != nil {
			if _, werr := fmt.Fprintf(w, "%s %s\n", TermErr, oneLine(err.Error())); werr != nil {
				return false
			}
		} else if _, werr := fmt.Fprintln(w, TermOK); werr != nil {
			return false
		}
		return w.Flush() == nil
	}
	// writeFrame surfaces write failures by closing the connection: a
	// frame worker discovering a half-closed peer this way makes the
	// reader's next Scan fail, so the connection tears down promptly
	// instead of scoring frames it can never answer.
	writeFrame := func(id uint64, payload string) {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := fmt.Fprintf(w, "%s%d %s\n", FramePrefix, id, payload); err != nil {
			conn.Close()
			return
		}
		if w.Flush() != nil {
			conn.Close()
		}
	}

	fmt.Fprintf(&body, "bismarckd ready — statements end with ';'\n")
	if !respond(nil) {
		return
	}

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	var term spec.TermScanner
	for sc.Scan() {
		line := sc.Text()
		// A pipelined frame is only a frame while no statement is being
		// accumulated: mid-statement, a leading '@' is statement payload.
		if buf.Len() == 0 && strings.HasPrefix(line, FramePrefix) {
			if strings.TrimSpace(line) == BinHello {
				// Binary negotiation: drain in-flight text frame workers
				// first so nothing textual can interleave after the ack,
				// then hand the connection to the binary loop for good.
				cwg.Wait()
				wmu.Lock()
				_, werr := fmt.Fprintln(w, BinHelloOK)
				if ferr := w.Flush(); werr == nil {
					werr = ferr
				}
				wmu.Unlock()
				if werr != nil {
					return
				}
				s.serveBinary(conn, w, &wmu, ctx.Done())
				return
			}
			s.serveFrame(line, writeFrame, &cwg, ctx.Done())
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		term.Write(line)
		term.Write("\n")
		// Network-facing bound: a client refusing to terminate must not
		// grow the buffer without limit.
		if buf.Len() > maxStatementBytes {
			respond(fmt.Errorf("server: statement exceeds %d bytes", maxStatementBytes))
			return
		}
		// Execute only on a ';' that really terminates a statement — one
		// inside an open string literal or behind a -- comment is payload
		// and keeps accumulating. The incremental scanner decides in
		// O(line), so the response count always matches the client's own
		// statement count and the framing stays in sync.
		if !term.Terminated() {
			continue
		}
		text := buf.String()
		buf.Reset()
		term.Reset()
		for _, stmt := range spec.SplitStatements(text) {
			if !respond(sess.exec(ctx, stmt)) {
				return
			}
		}
	}
	// A scanner error (oversized line, broken read) may have truncated the
	// buffered statement — report it rather than executing a partial
	// statement, which could parse into something the client never sent.
	if err := sc.Err(); err != nil {
		respond(fmt.Errorf("server: reading statement: %v", err))
		return
	}
	// Leftover buffer at EOF: run the ';'-terminated statements (they were
	// deliberately sent in full) but refuse the unterminated tail — unlike
	// Ctrl-D at the local REPL, a socket EOF is not a submit gesture, and
	// the tail may be the truncation artifact of a client that died
	// mid-send (executing "CANCEL JOB 1" cut from "CANCEL JOB 12;" would
	// act on the wrong target). When the leftover does not lex,
	// SplitStatements falls back to one unterminated piece and everything
	// is refused — with the buffer unsplittable there is no safe way to
	// salvage complete statements out of it.
	if rest := strings.TrimSpace(buf.String()); rest != "" {
		for _, stmt := range spec.SplitStatements(rest) {
			if !spec.Terminated(stmt) {
				respond(fmt.Errorf("server: dropping unterminated statement at connection end (missing ';')"))
				return
			}
			if !respond(sess.exec(ctx, stmt)) {
				return
			}
		}
	}
}

// serveFrame handles one pipelined request line "@<id> <stmt>". Parsing
// and admission happen synchronously in the connection's reader — a shed
// or malformed frame is answered without spawning anything, which bounds
// the per-connection goroutine count by the gate's inflight+queue budget
// no matter how fast a client pipelines. done closes at connection
// teardown: a worker still queued for a slot then returns its booking
// (Plane.Go) instead of scoring for a dead client.
func (s *TCPServer) serveFrame(line string, write func(id uint64, payload string), cwg *sync.WaitGroup, done <-chan struct{}) {
	id, stmt, err := parseFrameRequest(line)
	if err != nil {
		// id 0 is reserved for exactly this: a frame the server cannot
		// attribute to a client-chosen id.
		write(0, TermErr+" "+oneLine(err.Error()))
		return
	}
	st, err := spec.Parse(stmt)
	if err != nil {
		write(id, TermErr+" "+oneLine(err.Error()))
		return
	}
	if st.Kind != spec.KindPointPredict {
		write(id, fmt.Sprintf("%s frames carry inline point-PREDICT only, not %v — use the line protocol for other statements", TermErr, st.Kind))
		return
	}
	err = s.m.plane.Go(st.Model, st.Points, done, cwg, func(scores []float64, err error) {
		if err != nil {
			write(id, TermErr+" "+oneLine(err.Error()))
			return
		}
		var b strings.Builder
		b.WriteString(TermOK)
		for _, v := range scores {
			fmt.Fprintf(&b, " %.6g", v)
		}
		write(id, b.String())
	})
	if err != nil {
		write(id, TermErr+" "+oneLine(err.Error()))
	}
}

// parseFrameRequest splits "@<id> <stmt>" into its id and statement text.
// Ids are client-chosen and must be >= 1; the statement must fit the one
// line (frames have no continuation form).
func parseFrameRequest(line string) (uint64, string, error) {
	rest := strings.TrimPrefix(line, FramePrefix)
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return 0, "", fmt.Errorf("server: malformed frame: want %s<id> <point-PREDICT statement>", FramePrefix)
	}
	id, err := strconv.ParseUint(rest[:sp], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("server: malformed frame id %q: %v", rest[:sp], err)
	}
	if id == 0 {
		return 0, "", fmt.Errorf("server: frame id 0 is reserved for unattributable errors; use ids >= 1")
	}
	stmt := strings.TrimSpace(rest[sp+1:])
	if stmt == "" {
		return 0, "", fmt.Errorf("server: empty frame %d: want %s<id> <point-PREDICT statement>", id, FramePrefix)
	}
	return id, stmt, nil
}
