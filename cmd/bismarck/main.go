// Command bismarck is the declarative front end of §2.1: a REPL (or
// one-shot runner) for the SQLFlow-style statement grammar, executed
// against a file catalog created with the datagen command.
//
//	bismarck -data ./db "SELECT vec, label FROM papers TO TRAIN svm WITH alpha=0.1 INTO myModel"
//	bismarck -data ./db "SELECT * FROM papers TO PREDICT USING myModel"
//	bismarck -data ./db "PREDICT (0.5, 1.25) USING myModel"   # inline scoring, no table
//	bismarck -data ./db            # interactive REPL; statements end with ';'
//	bismarck -connect 127.0.0.1:7077   # client for a running bismarckd
//
// With -connect the catalog lives in the daemon: statements (including the
// async-job grammar — TRAIN ... ASYNC, SHOW JOBS, WAIT JOB, CANCEL JOB)
// are sent over the wire protocol and responses are printed as they
// arrive.
//
// The legacy MADlib-style calls (SELECT SVMTrain('m','t','vec','label'))
// keep working. SHOW TASKS lists every registered task and its WITH
// parameters; SHOW TABLES lists the catalog.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"bismarck/internal/engine"
	"bismarck/internal/serve"
	"bismarck/internal/server"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
)

func main() {
	var (
		dataDir = flag.String("data", "./bismarck-data", "catalog directory")
		connect = flag.String("connect", "", "bismarckd address; statements run remotely instead of on -data")
		epochs  = flag.Int("epochs", 0, "default training epochs when a statement sets none (0 = 20)")
		alpha   = flag.Float64("alpha", 0, "default initial step size when a statement sets none (0 = task preference)")
	)
	flag.Parse()

	if *connect != "" {
		// The local-only flags would be silently meaningless remotely —
		// session defaults live with the daemon (bismarckd -epochs/-alpha),
		// and so does the serving plane the daemon-side cache lives in
		// (bismarckd -serve-inflight/-serve-queue).
		var misused []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "data", "epochs", "alpha":
				misused = append(misused, "-"+f.Name)
			}
		})
		if len(misused) > 0 {
			fmt.Fprintf(os.Stderr, "bismarck: %s only apply locally; with -connect set them on the daemon (bismarckd flags)\n",
				strings.Join(misused, ", "))
			os.Exit(2)
		}
		os.Exit(runRemote(*connect, flag.Args()))
	}

	cat, err := engine.OpenFileCatalog(*dataDir, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bismarck: %v\n", err)
		os.Exit(1)
	}

	sess := &sqlish.Session{Cat: cat, Out: os.Stdout, Epochs: *epochs, Alpha: *alpha}
	// The local serving plane answers inline point-PREDICT from cached
	// snapshots — repeated scoring in a REPL stops reloading the model
	// every statement. No Guard: this process owns the catalog.
	plane := serve.New(cat, nil, serve.Options{})

	status := 0
	if flag.NArg() > 0 {
		for _, arg := range flag.Args() {
			for _, stmt := range spec.SplitStatements(arg) {
				if err := execOne(sess, plane, stmt); err != nil {
					fmt.Fprintf(os.Stderr, "bismarck: %v\n", err)
					status = 1
					break
				}
			}
			if status != 0 {
				break
			}
		}
	} else {
		repl(sess, plane)
	}
	// Discard any in-flight shadow generation a failed statement left
	// registered, then save even after a failed statement: earlier
	// statements in the same invocation may have created tables that must
	// reach catalog.json.
	if err := cat.DiscardShadows(); err != nil {
		fmt.Fprintf(os.Stderr, "bismarck: discarding in-flight shadows: %v\n", err)
	}
	if err := cat.Save(); err != nil {
		fmt.Fprintf(os.Stderr, "bismarck: saving catalog: %v\n", err)
		status = 1
	}
	if err := cat.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bismarck: closing catalog: %v\n", err)
		status = 1
	}
	os.Exit(status)
}

// repl runs the local interactive loop against the in-process session.
func repl(sess *sqlish.Session, plane *serve.Plane) {
	fmt.Println(`bismarck> statements end with ';'. Try SHOW TASKS; or SHOW TABLES; (Ctrl-D quits)`)
	statementLoop(func(text string) { execAll(sess, plane, text) })
}

// statementLoop reads statements from stdin, accumulating lines until a
// statement is terminated with ';' (a lone blank line also submits), and
// hands each completed batch to exec. Both the local and the -connect
// REPL run through it, so EOF flushing (don't drop a final statement
// missing its ';') and scanner-error reporting behave identically.
func statementLoop(exec func(text string)) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	var term spec.TermScanner
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("bismarck> ")
		} else {
			fmt.Print("     ...> ")
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
			fmt.Println("statements:")
			fmt.Println("  SELECT cols FROM t [WHERE ...] TO TRAIN task [WITH k=v,...] [COLUMN ...] [LABEL c] INTO model [ASYNC];")
			fmt.Println("  SELECT cols FROM t TO PREDICT [WITH threshold=x] [INTO out] USING model;")
			fmt.Println("  SELECT cols FROM t TO EVALUATE USING model;")
			fmt.Println("  PREDICT (v1, v2, ...) USING model;            -- inline scoring, no table")
			fmt.Println("  PREDICT VALUES (...), (...) USING model;      -- batched, one model generation")
			fmt.Println("  SHOW TASKS;  SHOW TABLES;  SHOW MODELS;  SHOW SHARDS t [k];")
			fmt.Println("  SHOW JOBS;  WAIT JOB n;  CANCEL JOB n;    (with -connect)")
			fmt.Println("  SHOW SERVING;                             -- serving-plane gate + per-model hits/fills/sheds")
			fmt.Println("  CHECK TABLE t;  SHOW SCRUB;               -- verify page checksums / list quarantined pages")
			fmt.Println("  (WITH degraded=true skips quarantined pages in source scans, reporting rows skipped)")
			fmt.Println("  (SHOW TASKS marks tasks scorable by inline PREDICT with [point])")
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
		fmt.Fprintf(os.Stderr, "error: reading input: %v\n", err)
	} else if strings.TrimSpace(buf.String()) != "" {
		// Don't silently drop a final statement missing its ';' at EOF.
		exec(buf.String())
	}
	fmt.Println()
}

// execAll splits the buffered text into ';'-terminated statements
// (respecting quoted strings and -- comments) and executes each.
func execAll(sess *sqlish.Session, plane *serve.Plane, text string) {
	for _, stmt := range spec.SplitStatements(text) {
		if err := execOne(sess, plane, stmt); err != nil {
			// A typed unknown-model error is a user mistake, not an engine
			// failure: render it without the package prefix.
			var ume *sqlish.UnknownModelError
			if errors.As(err, &ume) {
				fmt.Fprintf(os.Stderr, "%s\n", strings.TrimPrefix(err.Error(), "sqlish: "))
				continue
			}
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// execOne runs a single statement: inline point-PREDICT through the local
// serving plane (hot snapshots, generation-checked against the catalog),
// everything else through the session.
func execOne(sess *sqlish.Session, plane *serve.Plane, stmt string) error {
	st, err := spec.Parse(stmt)
	if err != nil {
		return err
	}
	if st.Kind == spec.KindPointPredict {
		scores := make([]float64, len(st.Points))
		if _, err := plane.Predict(st.Model, st.Points, scores); err != nil {
			return err
		}
		for _, v := range scores {
			fmt.Fprintf(sess.Out, "%.6g\n", v)
		}
		return nil
	}
	if st.Kind == spec.KindShowServing {
		gs, models := plane.Stats()
		fmt.Fprintf(sess.Out, "gate inflight=%d/%d queued=%d/%d models=%d\n",
			gs.Inflight, gs.InflightCap, gs.Queued, gs.QueueCap, gs.Models)
		for _, ms := range models {
			fmt.Fprintf(sess.Out, "model %-12s hits=%-6d fills=%-4d sheds=%-4d queued=%-3d retry_after_ms=%d\n",
				ms.Model, ms.Hits, ms.Fills, ms.Sheds, ms.Queued, ms.RetryAfterMS)
		}
		return nil
	}
	return sess.Run(st)
}

// runRemote speaks the wire protocol to a bismarckd. With args each is
// split into statements and run (first failure stops, like the local
// one-shot mode); without args it is a remote REPL. Splitting client-side
// matters for framing: the server answers once per statement, and
// Client.Exec reads exactly one response, so the stream stays in sync
// only when exactly one statement goes out per Exec.
func runRemote(addr string, args []string) int {
	c, err := server.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bismarck: %v\n", err)
		return 1
	}
	defer c.Close()

	exec := func(stmt string) bool {
		body, err := c.Exec(stmt)
		fmt.Print(body)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return false
		}
		return true
	}

	if len(args) > 0 {
		for _, arg := range args {
			for _, stmt := range spec.SplitStatements(arg) {
				if !exec(stmt) {
					return 1
				}
			}
		}
		return 0
	}

	fmt.Printf("bismarck> connected to %s; statements end with ';' (Ctrl-D quits)\n", addr)
	statementLoop(func(text string) {
		for _, stmt := range spec.SplitStatements(text) {
			exec(stmt)
		}
	})
	return 0
}
