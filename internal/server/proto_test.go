package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/engine"
)

// servers maps each manager to the TCP server started over it (startTCP,
// startExecNode), so quiescent can close it before asserting.
var servers sync.Map // *Manager → *TCPServer

// startTCP spins a served manager on a loopback port.
func startTCP(t *testing.T, m *Manager) (addr string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(m)
	servers.Store(m, srv)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		m.Drain()
	})
	return lis.Addr().String()
}

// TestProtocolRoundTrip drives the wire protocol end to end: banner,
// statement responses, ERR framing, multi-line and multi-statement sends,
// and the async-job grammar over TCP.
func TestProtocolRoundTrip(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 2})
	seedPapers(t, m, 150)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body, err := c.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(body) != "papers" {
		t.Fatalf("SHOW TABLES: %q", body)
	}

	// Statement errors come back on the ERR terminator, connection stays up.
	if _, err := c.Exec("SELECT * FROM papers TO PREDICT USING ghost"); err == nil ||
		!strings.Contains(err.Error(), "SHOW MODELS") {
		t.Fatalf("want unknown-model hint, got %v", err)
	}

	// Multi-line statement, then async round trip over the wire.
	if err := c.Send("SELECT vec, label FROM papers"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("TO TRAIN lr WITH epochs=3 INTO m ASYNC;"); err != nil {
		t.Fatal(err)
	}
	var submit strings.Builder
	if _, err := c.ReadResponse(&submit); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(submit.String(), "job 2 queued") {
		t.Fatalf("submit: %q", submit.String())
	}
	body, err = c.Exec("WAIT JOB 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "LR trained") || !strings.Contains(body, "job 2 done") {
		t.Fatalf("wait: %q", body)
	}
	if _, err := c.Exec("SELECT * FROM nowhere TO PREDICT USING m"); err == nil ||
		!strings.Contains(err.Error(), `no table "nowhere"`) {
		t.Fatalf("want table error, got %v", err)
	}

	// Exec enforces its one-statement contract (a second response would
	// desync every later call on this client).
	if _, err := c.Exec("SHOW MODELS; SHOW JOBS;"); err == nil ||
		!strings.Contains(err.Error(), "one statement") {
		t.Fatalf("multi-statement Exec not rejected: %v", err)
	}

	// Two statements in one send yield two framed responses, in order.
	if err := c.Send("SHOW MODELS; SHOW JOBS;"); err != nil {
		t.Fatal(err)
	}
	var models, jobs strings.Builder
	if _, err := c.ReadResponse(&models); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(&jobs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(models.String(), "task=lr") {
		t.Fatalf("models: %q", models.String())
	}
	if !strings.Contains(jobs.String(), "done") {
		t.Fatalf("jobs: %q", jobs.String())
	}

	// A second client shares catalog and jobs.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	body, err = c2.Exec("SHOW JOBS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "job 1") {
		t.Fatalf("second client jobs: %q", body)
	}
}

// TestProtocolParseErrorKeepsSession: a parse error must not kill the
// connection or poison the next statement.
func TestProtocolParseErrorKeepsSession(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	seedPapers(t, m, 50)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("GIBBERISH HERE"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	body, err := c.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "papers") {
		t.Fatalf("session dead after parse error: %q", body)
	}
}

// TestClientExecEmptyInputDoesNotHang: comment-only/blank input lexes to
// zero statements; Exec must reject it instead of waiting forever for a
// response the server will never send.
func TestClientExecEmptyInputDoesNotHang(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	addr := startTCP(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, in := range []string{"", ";", "-- just a comment"} {
		if _, err := c.Exec(in); err == nil || !strings.Contains(err.Error(), "no statement") {
			t.Fatalf("Exec(%q): %v", in, err)
		}
	}
	// The connection is still usable.
	if _, err := c.Exec("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolSemicolonInsideStringLiteral: a ';' inside a quoted string
// spanning lines is payload, not a terminator — the server must produce
// exactly one framed response for the statement, keeping the stream in
// sync, and a genuinely unterminated string is rejected client-side
// instead of hanging.
func TestProtocolSemicolonInsideStringLiteral(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	seedPapers(t, m, 60)
	addr := startTCP(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Model name contains ';' and a newline: two physical lines, the
	// first ending in ';' inside the open literal. The server must treat
	// it as ONE statement — a single framed response (here an ERR, since
	// control characters are invalid table names) — instead of splitting
	// at the embedded ';'.
	_, err = c.Exec("SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO 'm;\nx'")
	if err == nil || !strings.Contains(err.Error(), "invalid table name") {
		t.Fatalf("multi-line literal name: %v", err)
	}
	// Stream still in sync: the next statement gets its own response. A
	// same-line ';' inside a literal is valid name payload end to end.
	body, err := c.Exec("SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO 'm;x'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "LR trained") {
		t.Fatalf("train: %q", body)
	}
	body, err = c.Exec("SHOW MODELS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "m;x") || !strings.Contains(body, "task=lr") {
		t.Fatalf("models after literal-';' name: %q", body)
	}

	if _, err := c.Exec("SELECT * FROM papers TO TRAIN lr INTO 'oops"); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("unterminated string not rejected: %v", err)
	}
	// A lexical error ahead of the open quote must not mask it — this
	// input used to slip past the guard and hang in ReadResponse forever.
	if _, err := c.Exec("SELECT ? 'abc"); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("lex-error-then-open-string not rejected: %v", err)
	}
	// The connection is still usable.
	if _, err := c.Exec("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolSemicolonInsideComment: a ';' at the end of a -- comment is
// payload; the statement spanning the comment line must yield exactly one
// framed response and leave the stream in sync (regression for the raw
// suffix-';' terminator check).
func TestProtocolSemicolonInsideComment(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	seedPapers(t, m, 50)
	addr := startTCP(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body, err := c.Exec("SHOW -- note;\nTABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "papers") {
		t.Fatalf("comment-split statement: %q", body)
	}
	// In sync: the next statement gets its own, correct response.
	body, err = c.Exec("SHOW MODELS")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(body, "papers") {
		t.Fatalf("stream desynced after comment statement: %q", body)
	}
	// A statement ending in a trailing comment still terminates (the
	// client adds the ';' on a fresh line, not inside the comment).
	if _, err := c.Exec("SHOW TABLES -- done"); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolEOFTailSplits: a connection closed after 'complete;
// incomplete' must still execute the complete statement (split like the
// in-loop path) and report the dangling tail separately.
func TestProtocolEOFTailSplits(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	seedPapers(t, m, 50)
	addr := startTCP(t, m)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "SHOW TABLES; SHOW MODELS")
	if cw, ok := conn.(*net.TCPConn); ok {
		cw.CloseWrite()
	}
	data, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	// Banner OK + SHOW TABLES response (papers + OK); the unterminated
	// "SHOW MODELS" tail is refused (it could be a truncation artifact of
	// a client that died mid-send), yielding one ERR.
	if !strings.Contains(out, BodyPrefix+"papers") {
		t.Fatalf("complete statement before EOF tail not executed:\n%s", out)
	}
	if strings.Count(out, TermOK+"\n") != 2 ||
		!strings.Contains(out, TermErr+" server: dropping unterminated statement") {
		t.Fatalf("want 2 OK frames and the dropped-tail ERR:\n%s", out)
	}
}

// TestProtocolOversizedStatementRejected: the per-connection buffer is
// capped; a never-terminating client gets one ERR and the connection is
// closed instead of unbounded growth.
func TestProtocolOversizedStatementRejected(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	addr := startTCP(t, m)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := strings.Repeat("x", 64<<10)
	w := bufio.NewWriter(conn)
	for i := 0; i < 20; i++ { // 20 * 64KB > 1MB cap
		fmt.Fprintln(w, chunk)
	}
	w.Flush()
	data, _ := io.ReadAll(conn) // server closes after the ERR
	if !strings.Contains(string(data), TermErr+" server: statement exceeds") {
		t.Fatalf("oversized statement not rejected:\n%.200s", data)
	}
}

// TestProtocolRejectsPathTraversalNames: a remote client must not be able
// to point a heap file outside the daemon's catalog directory via quoted
// table/model names (engine-level name validation, reachable over TCP).
func TestProtocolRejectsPathTraversalNames(t *testing.T) {
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat, Options{})
	seedPapers(t, m, 60)
	addr := startTCP(t, m)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(
		"SELECT vec, label FROM papers TO TRAIN lr WITH epochs=1 INTO '../evil'"); err == nil ||
		!strings.Contains(err.Error(), "invalid table name") {
		t.Fatalf("traversal name not rejected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "evil.heap")); !os.IsNotExist(err) {
		t.Fatalf("heap file escaped the catalog directory: %v", err)
	}
}
