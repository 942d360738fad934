package main

import (
	"bytes"
	"net"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/server"
)

// transcriptScript touches every statement family: catalog reports, a
// seeded sync TRAIN, an ASYNC TRAIN and the job statements, both inline
// PREDICT forms, PREDICT INTO, EVALUATE, SHOW SERVING, and two failures.
const transcriptScript = `SHOW TASKS;
SHOW TABLES;
SHOW SHARDS forest 4;
CHECK TABLE forest;
SHOW SCRUB;
SELECT vec, label FROM forest TO TRAIN lr WITH alpha=0.2, epochs=5, seed=3 INTO m;
SELECT vec, label FROM forest TO TRAIN svm
  WITH epochs=4, seed=5
  INTO m2 ASYNC;
WAIT JOB 2;
SHOW JOBS;
CANCEL JOB 2;
CANCEL JOB 7;
SHOW MODELS;
PREDICT (0.25, 0.5, 0.75) USING m;
PREDICT VALUES (0.25, 0.5, 0.75), (0.9, 0.1, 0.2) USING m2;
SELECT * FROM forest TO PREDICT INTO scores USING m;
SELECT * FROM forest TO EVALUATE USING m2;
SELECT vec, label FROM forest TO TRAIN lr WITH alpha='x' INTO bad;
PREDICT (1, 2) USING nosuch;
SHOW SERVING;
SHOW TABLES;
`

// seedCatalog writes the same forest table into a fresh file catalog.
func seedCatalog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := data.Forest(500, 11)
	dst, err := cat.Create("forest", src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CopyTo(dst); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// transcript runs the script through the REPL loop of the command.
func transcript(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if status := run(args, strings.NewReader(transcriptScript), &out, &errb); status != 0 {
		t.Fatalf("bismarck %v exited %d; stderr:\n%s", args, status, errb.String())
	}
	return out.String(), errb.String()
}

var (
	durations  = regexp.MustCompile(` +(\d+h)?(\d+m)?\d+(\.\d+)?(ms|s|µs|ns)\b`)
	retryHints = regexp.MustCompile(`retry_after_ms=\d+`)
)

// mask drops the banner line and blanks durations and retry hints — the
// only parts of a transcript allowed to differ between runs.
func mask(s string) string {
	if _, rest, ok := strings.Cut(s, "\n"); ok {
		s = rest
	}
	s = durations.ReplaceAllString(s, " <dur>")
	return retryHints.ReplaceAllString(s, "retry_after_ms=<n>")
}

// TestTranscriptLocalMatchesConnect runs one script through the local REPL
// (an in-process server.Manager over a file catalog) and through -connect
// (a TCPServer over an identically seeded catalog): the two transcripts
// must match byte for byte, and the local run must leave no job worker
// running and every model saved.
func TestTranscriptLocalMatchesConnect(t *testing.T) {
	localDir, remoteDir := seedCatalog(t), seedCatalog(t)

	baseline := runtime.NumGoroutine()
	localOut, localErr := transcript(t, "-data", localDir)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after the local run: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	cat, err := engine.OpenFileCatalog(localDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m", "m2", "scores"} {
		if _, err := cat.Get(name); err != nil {
			t.Errorf("local run did not save %q: %v", name, err)
		}
	}
	cat.Close()

	cat, err = engine.OpenFileCatalog(remoteDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(cat, server.Options{})
	srv := server.NewTCPServer(mgr)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	remoteOut, remoteErr := transcript(t, "-connect", lis.Addr().String())
	srv.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{"job 2 queued", "job 2 done in", "job 2 already done",
		"predicted 500 rows into table \"scores\"", "executor conns=", "model m2 "} {
		if !strings.Contains(localOut, want) {
			t.Errorf("local stdout lacks %q:\n%s", want, localOut)
		}
	}
	for _, want := range []string{"error: server: no job 7", "error: sqlish: unknown model \"nosuch\""} {
		if !strings.Contains(localErr, want) {
			t.Errorf("local stderr lacks %q:\n%s", want, localErr)
		}
	}
	if a, b := mask(localOut), mask(remoteOut); a != b {
		t.Errorf("stdout differs\n--- local\n%s\n--- connect\n%s", a, b)
	}
	if localErr != remoteErr {
		t.Errorf("stderr differs\n--- local\n%s\n--- connect\n%s", localErr, remoteErr)
	}
}
