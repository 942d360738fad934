package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
	"bismarck/internal/wire"
)

// seedSignSets creates two constant-label training sets over the same
// feature point: lsq trained on "pos" scores (1,1) near +10, on "neg"
// near -10 — the served sign identifies the model generation.
func seedSignSets(t testing.TB, m *Manager) {
	t.Helper()
	for name, label := range map[string]float64{"pos": 10, "neg": -10} {
		tbl, err := m.Catalog().Create(name, tasks.DenseExampleSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			tbl.MustInsert(engine.Tuple{
				engine.I64(int64(i)),
				engine.DenseV(vector.Dense{1, 1}),
				engine.F64(label),
			})
		}
	}
}

const trainSignFmt = `SELECT vec, label FROM %s TO TRAIN lsq
	WITH alpha=0.1, epochs=6, dim=2, seed=1 INTO m%s;`

// TestFrameRoundTrip drives the pipelined frame protocol over TCP:
// out-of-order ids, batched scoring, error frames, and the rule that '@'
// mid-statement is payload, not a frame.
func TestFrameRoundTrip(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 2})
	seedSignSets(t, m)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}

	// Pipeline three frames before reading anything; responses come back
	// keyed by id, whatever their order.
	if err := c.SendFrame(7, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendFrame(3, "PREDICT VALUES (1, 1), (3, 3) USING m;"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendFrame(9, "PREDICT (2, 2) USING nosuch"); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]Frame{}
	for i := 0; i < 3; i++ {
		f, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		got[f.ID] = f
	}
	if f := got[7]; f.Err != "" || len(f.Scores) != 1 || f.Scores[0] < 5 {
		t.Fatalf("frame 7: %+v", f)
	}
	if f := got[3]; f.Err != "" || len(f.Scores) != 2 || f.Scores[0] < 5 || f.Scores[1] < 15 {
		t.Fatalf("frame 3: %+v", f)
	}
	if f := got[9]; f.Err == "" || !strings.Contains(f.Err, "SHOW MODELS") {
		t.Fatalf("frame 9 should carry the unknown-model hint: %+v", f)
	}

	// Non-point statements are refused on frames; malformed ids answer
	// on the reserved id 0.
	if err := c.SendFrame(4, "SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.ID != 4 || !strings.Contains(f.Err, "point-PREDICT only") {
		t.Fatalf("frame 4: %+v, %v", f, err)
	}
	if err := c.Send("@nope PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.ID != 0 || !strings.Contains(f.Err, "malformed frame") {
		t.Fatalf("malformed frame: %+v, %v", f, err)
	}
	if err := c.Send("@0 PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.ID != 0 || !strings.Contains(f.Err, "reserved") {
		t.Fatalf("id-0 frame: %+v, %v", f, err)
	}

	// '@' while a statement is buffered is statement payload: the two
	// lines below form ONE (invalid) statement and draw one line-protocol
	// ERR — not a frame response, and not an executed frame.
	if err := c.Send("SELECT * FROM pos TO PREDICT"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("@1 USING m;"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadResponse(nil); err == nil {
		t.Fatal("payload '@' line should have broken the statement parse")
	}
}

// TestFrameBusyShedding occupies the gate (slot and queue) and checks an
// incoming frame is shed synchronously with the typed busy error and a
// usable retry hint.
func TestFrameBusyShedding(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1, ServeInflight: 1, ServeQueue: 1})
	seedSignSets(t, m)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}

	// Fill the slot and the queue from inside, so the next frame sheds.
	hold, err := m.Plane().Gate().Admit()
	if err != nil {
		t.Fatal(err)
	}
	hold.WaitOrCancel(nil)
	queued, err := m.Plane().Gate().Admit()
	if err != nil {
		t.Fatal(err)
	}

	if err := c.SendFrame(1, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil || f.ID != 1 {
		t.Fatalf("busy frame: %+v, %v", f, err)
	}
	if !strings.Contains(f.Err, "busy") || !strings.Contains(f.Err, "retry_after_ms=") {
		t.Fatalf("want typed busy + retry hint, got %q", f.Err)
	}

	// The @bin leg: the shed travels as a BUSY frame, and the client
	// renders it into exactly the text the line protocol carries.
	bc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if err := bc.Binary(); err != nil {
		t.Fatal(err)
	}
	if err := bc.SendBinPredict(3, "m", [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	bf, err := bc.ReadBinFrame()
	if err != nil || bf.ID != 3 || bf.Scores != nil {
		t.Fatalf("busy binary frame: %+v, %v", bf, err)
	}
	var hint int64
	if _, err := fmt.Sscanf(bf.Err, "busy: serving queue full, retry_after_ms=%d", &hint); err != nil || hint < 1 ||
		bf.Err != (&wire.BusyError{RetryAfterMS: hint}).Error() {
		t.Fatalf("binary shed renders %q, want the *wire.BusyError text with a hint >= 1", bf.Err)
	}

	// Release capacity: the plane serves again.
	go func() { queued.WaitOrCancel(nil); queued.Release() }()
	hold.Release()
	if err := c.SendFrame(2, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	f, err = c.ReadFrame()
	if err != nil || f.Err != "" || len(f.Scores) != 1 {
		t.Fatalf("post-shed frame: %+v, %v", f, err)
	}
}

// TestPipelinedPredictDuringAsyncTrain is the serving-plane race proof at
// the wire level: several connections keep many frames in flight against
// model m while the control connection retrains m back and forth with
// TRAIN ... ASYNC. Every frame response must be internally consistent
// with exactly one generation — its two proportional probes (1,1) and
// (3,3) must agree in sign and keep their 3× ratio; a response mixing
// generations would break both. Run under -race this also proves the
// lock-free snapshot path clean.
func TestPipelinedPredictDuringAsyncTrain(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 2})
	seedSignSets(t, m)
	addr := startTCP(t, m)

	ctrl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	const window = 8 // frames in flight per client per round
	stop := make(chan struct{})
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			id := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < window; i++ {
					id++
					if err := cl.SendFrame(id, "PREDICT VALUES (1, 1), (3, 3) USING m"); err != nil {
						errc <- err
						return
					}
				}
				for i := 0; i < window; i++ {
					f, err := cl.ReadFrame()
					if err != nil {
						errc <- err
						return
					}
					if f.Err != "" {
						if strings.Contains(f.Err, "busy") {
							continue // shed load is a legal answer under hammering
						}
						errc <- fmt.Errorf("frame %d: %s", f.ID, f.Err)
						return
					}
					if len(f.Scores) != 2 {
						errc <- fmt.Errorf("frame %d: %d scores", f.ID, len(f.Scores))
						return
					}
					if (f.Scores[0] > 0) != (f.Scores[1] > 0) {
						errc <- fmt.Errorf("torn batch: signs differ %v", f.Scores)
						return
					}
					if ratio := f.Scores[1] / f.Scores[0]; ratio < 2.99 || ratio > 3.01 {
						errc <- fmt.Errorf("torn batch: ratio %v for %v", ratio, f.Scores)
						return
					}
				}
			}
		}(cl)
	}

	// Retrain with alternating labels while the hammering runs. Jobs are
	// the only async submissions on this manager, so ids count up from 1.
	for job, src := 1, 0; job <= 4; job++ {
		name := []string{"neg", "pos"}[src]
		src = 1 - src
		if _, err := ctrl.Exec(fmt.Sprintf(trainSignFmt, name, " ASYNC")); err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Exec(fmt.Sprintf("WAIT JOB %d;", job)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	quiescent(t, m)
}
