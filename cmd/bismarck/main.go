// Command bismarck is the declarative front end of §2.1: a REPL (or
// one-shot runner) for the SQLFlow-style statement grammar.
//
//	bismarck -data ./db "SELECT vec, label FROM papers TO TRAIN svm WITH alpha=0.1 INTO myModel"
//	bismarck -data ./db "SELECT * FROM papers TO PREDICT USING myModel"
//	bismarck -data ./db "PREDICT (0.5, 1.25) USING myModel"   # inline scoring, no table
//	bismarck -data ./db            # interactive REPL; statements end with ';'
//	bismarck -connect 127.0.0.1:7077   # client for a running bismarckd
//
// Without -connect it opens the -data catalog (created with the datagen
// command) and runs the daemon's statement front end, a server.Manager,
// in process with no listener: every statement — TRAIN ... ASYNC, SHOW
// JOBS, WAIT JOB, CANCEL JOB and SHOW SERVING included — behaves exactly
// as it does against bismarckd. On exit it drains the jobs, then saves and
// closes the catalog. With -connect the catalog lives in the daemon and
// statements go over the wire protocol. Both modes print results to stdout
// and failures to stderr as "error: <message>".
//
// The legacy MADlib-style calls (SELECT SVMTrain('m','t','vec','label'))
// keep working. SHOW TASKS lists every registered task and its WITH
// parameters; SHOW TABLES lists the catalog.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bismarck/internal/engine"
	"bismarck/internal/server"
	"bismarck/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command over explicit streams, returning the exit
// status: 1 when a one-shot statement or the shutdown fails, 2 on bad flags.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bismarck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataDir = fs.String("data", "./bismarck-data", "catalog directory")
		connect = fs.String("connect", "", "bismarckd address; statements run remotely instead of on -data")
		epochs  = fs.Int("epochs", 0, "default training epochs when a statement sets none (0 = 20)")
		alpha   = fs.Float64("alpha", 0, "default initial step size when a statement sets none (0 = task preference)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *connect != "" {
		// The local-only flags would be silently meaningless remotely —
		// session defaults live with the daemon (bismarckd -epochs/-alpha).
		var misused []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "data", "epochs", "alpha":
				misused = append(misused, "-"+f.Name)
			}
		})
		if len(misused) > 0 {
			fmt.Fprintf(stderr, "bismarck: %s only apply locally; with -connect set them on the daemon (bismarckd flags)\n",
				strings.Join(misused, ", "))
			return 2
		}
		c, err := server.Dial(*connect)
		if err != nil {
			fmt.Fprintf(stderr, "bismarck: %v\n", err)
			return 1
		}
		defer c.Close()
		banner := fmt.Sprintf("connected to %s; statements end with ';'", *connect)
		return statements(c.Exec, banner, fs.Args(), stdin, stdout, stderr)
	}

	cat, err := engine.OpenFileCatalog(*dataDir, 0)
	if err != nil {
		fmt.Fprintf(stderr, "bismarck: %v\n", err)
		return 1
	}
	mgr := server.NewManager(cat, server.Options{Epochs: *epochs, Alpha: *alpha})
	var body bytes.Buffer
	sess := mgr.NewSession(&body)
	exec := func(stmt string) (string, error) {
		defer body.Reset()
		err := sess.Exec(stmt)
		return body.String(), err
	}
	status := statements(exec, "statements end with ';'. Try SHOW TASKS; or SHOW TABLES;", fs.Args(), stdin, stdout, stderr)
	if err := mgr.Close(); err != nil {
		fmt.Fprintf(stderr, "bismarck: %v\n", err)
		status = 1
	}
	return status
}

// statements runs every statement through exec — the local session or
// Client.Exec, so both modes print alike. With args each is split into
// statements and run until the first failure (status 1); without args it
// is the REPL on stdin. Splitting client-side matters for framing: the
// server answers once per statement and Client.Exec reads exactly one
// response, so the stream stays in sync only when exactly one statement
// goes out per Exec.
func statements(exec func(stmt string) (string, error), banner string, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	one := func(stmt string) bool {
		body, err := exec(stmt)
		// The wire frames a body as whole lines; render the local one the
		// same way.
		if b := strings.TrimRight(body, "\n"); b != "" {
			fmt.Fprintln(stdout, b)
		}
		if err != nil {
			fmt.Fprintf(stderr, "error: %s\n", strings.Join(strings.Fields(err.Error()), " "))
			return false
		}
		return true
	}
	if len(args) > 0 {
		for _, arg := range args {
			for _, stmt := range spec.SplitStatements(arg) {
				if !one(stmt) {
					return 1
				}
			}
		}
		return 0
	}
	fmt.Fprintf(stdout, "bismarck> %s (Ctrl-D quits)\n", banner)
	statementLoop(stdin, stdout, stderr, func(text string) {
		for _, stmt := range spec.SplitStatements(text) {
			one(stmt)
		}
	})
	return 0
}

// statementLoop reads statements from in, accumulating lines until a
// statement is terminated with ';' (a lone blank line also submits), and
// hands each completed batch to exec. At EOF a final statement missing its
// ';' is still submitted; a scanner error is reported instead.
func statementLoop(in io.Reader, stdout, stderr io.Writer, exec func(text string)) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	var term spec.TermScanner
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(stdout, "bismarck> ")
		} else {
			fmt.Fprint(stdout, "     ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case buf.Len() == 0 && trimmed == "":
			// skip leading blank lines
		case buf.Len() == 0 && (strings.EqualFold(trimmed, "help") || trimmed == "\\h"):
			fmt.Fprint(stdout, help)
		default:
			buf.WriteString(line)
			buf.WriteByte('\n')
			term.Write(line)
			term.Write("\n")
			// Submit on a real terminator only — a ';' inside an open
			// string literal or behind a -- comment is payload, and the
			// incremental scanner knows the difference. A blank line still
			// force-submits as an escape hatch.
			if term.Terminated() || trimmed == "" {
				text := buf.String()
				buf.Reset()
				term.Reset()
				exec(text)
			}
		}
		prompt()
	}
	if err := sc.Err(); err != nil {
		// A scanner error may have truncated the buffered statement —
		// report it rather than executing a partial statement.
		fmt.Fprintf(stderr, "error: reading input: %v\n", err)
	} else if strings.TrimSpace(buf.String()) != "" {
		// Don't silently drop a final statement missing its ';' at EOF.
		exec(buf.String())
	}
	fmt.Fprintln(stdout)
}

const help = `statements:
  SELECT cols FROM t [WHERE ...] TO TRAIN task [WITH k=v,...] [COLUMN ...] [LABEL c] INTO model [ASYNC];
  SELECT cols FROM t TO PREDICT [WITH threshold=x] [INTO out] USING model;
  SELECT cols FROM t TO EVALUATE USING model;
  PREDICT (v1, v2, ...) USING model;            -- inline scoring, no table
  PREDICT VALUES (...), (...) USING model;      -- batched, one model generation
  SHOW TASKS;  SHOW TABLES;  SHOW MODELS;  SHOW SHARDS t [k];
  SHOW JOBS;  WAIT JOB n;  CANCEL JOB n;    -- TRAIN/PREDICT/EVALUATE jobs, sync or ASYNC
  SHOW SERVING;                             -- serving-plane gate + per-model hits/fills/sheds
  CHECK TABLE t;  SHOW SCRUB;               -- verify page checksums / list quarantined pages
  (WITH degraded=true skips quarantined pages in source scans, reporting rows skipped)
  (SHOW TASKS marks tasks scorable by inline PREDICT with [point])
`
