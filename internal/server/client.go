package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"bismarck/internal/spec"
	"bismarck/internal/wire"
)

// Client speaks the bismarckd wire protocol: one statement out, one
// framed response back. It is what `bismarck -connect` and the e2e tests
// drive; any line-oriented tool (nc) works just as well.
//
// Pipelining clients send frames from whatever goroutine produced them,
// so the write side (Send, SendFrame, SendBinPredict) is mutex-
// serialized: without it, two in-flight SendFrames could interleave
// their bytes mid-line and desync the connection's framing for good —
// and the binary path's reused encode buffer would race outright. The
// read side stays single-reader (one goroutine drains responses), which
// is the only arrangement id-matched pipelining supports anyway.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner

	// wmu serializes writes; see the type comment.
	wmu sync.Mutex

	// Binary-mode state, nil/empty until Binary() negotiates the switch.
	br      *bufio.Reader
	sendBuf []byte
	recvBuf []byte
}

// Dial connects and consumes the server banner.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, sc: bufio.NewScanner(conn)}
	c.sc.Buffer(make([]byte, 1<<20), 1<<20)
	if _, err := c.ReadResponse(nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: bad banner: %w", err)
	}
	return c, nil
}

// Exec sends one statement (';' appended when missing) and returns the
// response body. A server-side statement failure comes back as an error.
// Exactly one statement per call: the server answers once per statement
// and Exec reads one response, so passing several would desync every
// later call on this client — multi-statement input is rejected instead
// (split it with spec.SplitStatements and Exec each piece).
func (c *Client) Exec(stmt string) (string, error) {
	s := strings.TrimSpace(stmt)
	if spec.Incomplete(s) {
		// The server would wait for the string literal to close and never
		// respond; fail fast instead of hanging the connection.
		return "", fmt.Errorf("server: statement has an %v", spec.ErrUnterminatedString)
	}
	if !spec.Terminated(s) {
		// Terminate on a fresh line: appending to the current line could
		// land the ';' inside a trailing -- comment.
		s += "\n;"
	}
	switch pieces := spec.SplitStatements(s); len(pieces) {
	case 1:
	case 0:
		// Comment-only/blank input would make the server execute zero
		// statements and send zero responses — blocking the read below
		// forever.
		return "", fmt.Errorf("server: Exec got no statement (blank or comment-only input)")
	default:
		return "", fmt.Errorf("server: Exec takes one statement, got %d — send each separately", len(pieces))
	}
	if err := c.Send(s); err != nil {
		return "", err
	}
	var body strings.Builder
	if _, err := c.ReadResponse(&body); err != nil {
		return body.String(), err
	}
	return body.String(), nil
}

// Send writes raw statement text (the caller owns ';' placement — the
// server only executes once a line ends with one).
func (c *Client) Send(text string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := fmt.Fprintln(c.conn, text)
	return err
}

// ReadResponse consumes one framed response, appending unprefixed body
// lines to body (when non-nil). It returns the number of body lines; an
// ERR terminator surfaces as an error carrying the server message.
func (c *Client) ReadResponse(body *strings.Builder) (int, error) {
	n := 0
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case line == TermOK:
			return n, nil
		case strings.HasPrefix(line, TermErr+" "):
			return n, fmt.Errorf("%s", strings.TrimPrefix(line, TermErr+" "))
		case strings.HasPrefix(line, BodyPrefix):
			if body != nil {
				body.WriteString(strings.TrimPrefix(line, BodyPrefix))
				body.WriteByte('\n')
			}
			n++
		default:
			return n, fmt.Errorf("server: malformed response line %q", line)
		}
	}
	if err := c.sc.Err(); err != nil {
		return n, err
	}
	return n, fmt.Errorf("server: connection closed mid-response")
}

// Frame is one pipelined point-PREDICT response: the echoing id plus
// either the batch's scores or the server's error line (Err != "").
type Frame struct {
	ID     uint64
	Scores []float64
	Err    string
}

// SendFrame pipelines one inline point-PREDICT without waiting for the
// response; any number may be in flight, matched back by id via
// ReadFrame. The statement must be a single line (frames have no
// continuation form) and ids must be >= 1. Do not interleave Exec with
// unread frames on one client — frame responses arriving inside Exec's
// response window would desync it; pipelining clients dedicate the
// connection to frames (or drain frames first).
func (c *Client) SendFrame(id uint64, stmt string) error {
	if id == 0 {
		return fmt.Errorf("server: frame ids start at 1 (0 is the server's unattributable-error id)")
	}
	s := oneLine(stmt)
	if s == "" {
		return fmt.Errorf("server: empty frame statement")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := fmt.Fprintf(c.conn, "%s%d %s\n", FramePrefix, id, s)
	return err
}

// ReadFrame consumes one pipelined response line. Responses arrive in
// completion order, not send order — match by Frame.ID. A server-reported
// failure is returned in Frame.Err (not as a Go error, so the caller can
// still attribute it to its id); the error return is for transport or
// framing problems only.
func (c *Client) ReadFrame() (Frame, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Frame{}, err
		}
		return Frame{}, fmt.Errorf("server: connection closed before frame response")
	}
	line := c.sc.Text()
	rest, ok := strings.CutPrefix(line, FramePrefix)
	if !ok {
		return Frame{}, fmt.Errorf("server: expected a frame response, got %q", line)
	}
	idStr, payload, ok := strings.Cut(rest, " ")
	if !ok {
		return Frame{}, fmt.Errorf("server: malformed frame response %q", line)
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return Frame{}, fmt.Errorf("server: malformed frame response id in %q: %v", line, err)
	}
	f := Frame{ID: id}
	switch {
	case payload == TermOK:
	case strings.HasPrefix(payload, TermOK+" "):
		for _, field := range strings.Fields(strings.TrimPrefix(payload, TermOK+" ")) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return Frame{}, fmt.Errorf("server: non-numeric score %q in frame %d", field, id)
			}
			f.Scores = append(f.Scores, v)
		}
	case strings.HasPrefix(payload, TermErr+" "):
		f.Err = strings.TrimPrefix(payload, TermErr+" ")
	default:
		return Frame{}, fmt.Errorf("server: malformed frame payload %q", line)
	}
	return f, nil
}

// Binary negotiates the length-prefixed binary frame encoding for this
// connection (see binframe.go for the layout): it sends the "@bin" line,
// waits for the server's ack, and switches the client to binary-only
// I/O — after a successful Binary only SendBinPredict/ReadBinFrame may be
// used. Call it with no text frames in flight (the server answers those
// before acking, and the responses would be misread as the ack).
func (c *Client) Binary() error {
	if c.br != nil {
		return fmt.Errorf("server: connection already in binary mode")
	}
	if err := c.Send(BinHello); err != nil {
		return err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("server: connection closed during binary negotiation")
	}
	if line := c.sc.Text(); line != BinHelloOK {
		return fmt.Errorf("server: binary negotiation failed: got %q, want %q", line, BinHelloOK)
	}
	// The server sends nothing after the ack until our first binary
	// frame, so a fresh reader on the raw connection misses no bytes.
	c.br = bufio.NewReader(c.conn)
	return nil
}

// SendBinPredict pipelines one binary predict frame (requires Binary()
// first). Batches must be rectangular; ids must be >= 1 and are matched
// back by ReadBinFrame like their text counterparts.
func (c *Client) SendBinPredict(id uint64, model string, points [][]float64) error {
	if c.br == nil {
		return fmt.Errorf("server: SendBinPredict before Binary() negotiated binary mode")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := appendBinRequest(c.sendBuf[:0], id, model, points)
	c.sendBuf = buf
	if err != nil {
		return err
	}
	_, err = c.conn.Write(buf)
	return err
}

// ReadBinFrame consumes one binary response frame (requires Binary()
// first). Like ReadFrame, a server-reported failure lands in Frame.Err
// and the error return is transport/framing trouble only.
func (c *Client) ReadBinFrame() (Frame, error) {
	if c.br == nil {
		return Frame{}, fmt.Errorf("server: ReadBinFrame before Binary() negotiated binary mode")
	}
	payload, err := wire.ReadFrame(c.br, &c.recvBuf)
	if err != nil {
		return Frame{}, err
	}
	return binFrame(payload)
}

// binFrame turns a binary response payload into the client's Frame: an
// ERR or BUSY verdict lands in Frame.Err, rendered as the line protocol
// renders it, and scores are allocated fresh (the client side is not the
// hot path).
func binFrame(payload []byte) (Frame, error) {
	id, scores, err := wire.DecodeResponse(payload, nil)
	switch err.(type) {
	case nil:
		return Frame{ID: id, Scores: scores}, nil
	case *wire.RemoteError, *wire.BusyError:
		return Frame{ID: id, Err: err.Error()}, nil
	}
	return Frame{}, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
