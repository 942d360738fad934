package server

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/engine"
)

var jobIDRe = regexp.MustCompile(`job (\d+) queued`)

// TestEightClientConcurrentSessions is the race-proof e2e of the issue:
// an in-process TCP server with 8 concurrent clients running interleaved
// TRAIN ASYNC / PREDICT / EVALUATE / SHOW JOBS over one shared model and
// per-client disjoint models. Every PREDICT must score the full table (a
// torn model read would change the row count or error), every EVALUATE
// must succeed, and after the final WAITs every submitted job must sit in
// a terminal state. Run under -race this also proves the session layer
// free of data races.
func TestEightClientConcurrentSessions(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 4})
	seedPapers(t, m, 300)
	addr := startTCP(t, m)

	// Generation zero of the shared model, so mid-train PREDICTs always
	// have a snapshot to serve.
	boot, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec("SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, seed=1 INTO shared"); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	const clients = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*4)
	var mu sync.Mutex
	var jobs []string // job ids seen by any client

	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", ci, err)
				return
			}
			defer c.Close()

			task := "lr"
			if ci%2 == 1 {
				task = "svm"
			}
			own := fmt.Sprintf("own_%d", ci)
			var waits []string

			submit := func(stmt string) {
				body, err := c.Exec(stmt)
				if err != nil {
					errs <- fmt.Errorf("client %d: %s: %w", ci, stmt, err)
					return
				}
				match := jobIDRe.FindStringSubmatch(body)
				if match == nil {
					errs <- fmt.Errorf("client %d: submit gave no job id: %q", ci, body)
					return
				}
				waits = append(waits, match[1])
			}

			for r := 0; r < rounds; r++ {
				// Disjoint-model training: nobody else touches own_i.
				submit(fmt.Sprintf(
					"SELECT vec, label FROM papers TO TRAIN %s WITH epochs=2, seed=%d INTO %s ASYNC",
					task, ci*10+r, own))
				// Shared-model churn: half the clients keep retraining
				// "shared" while everyone scores against it.
				if ci%2 == 0 {
					submit(fmt.Sprintf(
						"SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, seed=%d INTO shared ASYNC",
						100+ci*10+r))
				}
				body, err := c.Exec("SELECT * FROM papers TO PREDICT USING shared")
				if err != nil {
					errs <- fmt.Errorf("client %d predict: %w", ci, err)
					return
				}
				if !strings.Contains(body, "predicted 300 rows") {
					errs <- fmt.Errorf("client %d: torn predict: %q", ci, body)
					return
				}
				if _, err := c.Exec("SELECT * FROM papers TO EVALUATE USING shared"); err != nil {
					errs <- fmt.Errorf("client %d evaluate: %w", ci, err)
					return
				}
				if _, err := c.Exec("SHOW JOBS"); err != nil {
					errs <- fmt.Errorf("client %d show jobs: %w", ci, err)
					return
				}
			}
			// Every job this client submitted must reach a terminal state.
			for _, id := range waits {
				if _, err := c.Exec("WAIT JOB " + id); err != nil {
					errs <- fmt.Errorf("client %d wait %s: %w", ci, id, err)
					return
				}
			}
			mu.Lock()
			jobs = append(jobs, waits...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	wantJobs := clients*rounds + (clients/2)*rounds
	if len(jobs) != wantJobs {
		t.Fatalf("collected %d job ids, want %d", len(jobs), wantJobs)
	}
	// The ledger also lists the boot TRAIN and every sync PREDICT and
	// EVALUATE: heavy statements are jobs.
	wantLedger := 1 + wantJobs + clients*rounds*2

	// Final ledger: every job terminal, none stuck queued/running.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body, err := c.Exec("SHOW JOBS")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != wantLedger {
		t.Fatalf("SHOW JOBS lists %d jobs, want %d:\n%s", len(lines), wantLedger, body)
	}
	for _, line := range lines {
		if !strings.Contains(line, "done") {
			t.Errorf("non-terminal or failed job after drain: %s", line)
		}
	}

	// Disjoint models all persisted; the shared model survived the churn.
	for ci := 0; ci < clients; ci++ {
		if w := readModel(t, m.Catalog(), fmt.Sprintf("own_%d", ci)); len(w) == 0 {
			t.Errorf("own_%d model empty", ci)
		}
	}
	if w := readModel(t, m.Catalog(), "shared"); len(w) == 0 {
		t.Error("shared model empty")
	}
	quiescent(t, m)
}
