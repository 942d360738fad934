package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/wire"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameDisconnectReleasesQueuedSlots is the dead-client slot-leak
// regression: a client that fills the admission queue with pipelined
// frames and then disconnects must give every queue booking back, so a
// second live client is admitted immediately instead of being shed (or
// served only after the dead frames burned the scoring slot).
func TestFrameDisconnectReleasesQueuedSlots(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1,
		ServeInflight: 1, ServeQueue: 4, ServeModelQueue: 4})
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

	// Occupy the only scoring slot from inside so frames can only queue.
	hold, err := m.Plane().Gate().Admit()
	if err != nil {
		t.Fatal(err)
	}
	hold.WaitOrCancel(nil)

	// Client A books the entire queue with pipelined frames...
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ {
		if err := a.SendFrame(id, "PREDICT (1, 1) USING m"); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "4 frames queued", func() bool { return m.Plane().Gate().Queued() == 4 })

	// ...so its 5th frame sheds (sanity: the queue really is full)...
	if err := a.SendFrame(5, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	if f, err := a.ReadFrame(); err != nil || !strings.Contains(f.Err, "busy") {
		t.Fatalf("5th frame should shed busy, got %+v, %v", f, err)
	}

	// ...and then A dies with all 4 frames still parked.
	a.Close()
	waitUntil(t, "dead client's queue bookings released", func() bool {
		return m.Plane().Gate().Queued() == 0
	})

	// A live client is admitted into the freed queue (pre-fix its frame
	// was shed: the dead bookings still counted)...
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SendFrame(1, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "live client's frame queued", func() bool {
		return m.Plane().Gate().Queued() == 1
	})

	// ...and when the slot frees, B is served directly — none of A's dead
	// frames burns the slot first.
	hold.Release()
	f, err := b.ReadFrame()
	if err != nil || f.ID != 1 || f.Err != "" || len(f.Scores) != 1 || f.Scores[0] < 5 {
		t.Fatalf("live client's frame after release: %+v, %v", f, err)
	}
	quiescent(t, m)
}

// TestPointPredictHonoursShutdown: a line-protocol point PREDICT queued
// for a scoring slot must give up when the server closes, not park the
// connection handler (and with it TCPServer.Close) until a slot frees.
func TestPointPredictHonoursShutdown(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1, ServeInflight: 1, ServeQueue: 2})
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

	// Hold every global slot so the statement can only queue.
	hold, err := m.Plane().Gate().Admit()
	if err != nil {
		t.Fatal(err)
	}
	hold.WaitOrCancel(nil)
	if err := c.Send("PREDICT (1, 1) USING m;"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the statement queued", func() bool { return m.Plane().Gate().Queued() == 1 })

	srv, _ := servers.Load(m)
	closed := make(chan struct{})
	go func() {
		srv.(*TCPServer).Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		hold.Release() // unwedge Close so the cleanup can finish
		t.Fatal("TCPServer.Close hung behind a queued line-protocol PREDICT")
	}
	if q := m.Plane().Gate().Queued(); q != 0 {
		t.Fatalf("queued PREDICT kept its booking past shutdown: queued=%d", q)
	}
	// The client sees an error line or a closed connection, never scores.
	var body strings.Builder
	if _, err := c.ReadResponse(&body); err == nil {
		t.Fatalf("queued PREDICT answered OK across shutdown: %q", body.String())
	}
	hold.Release()
	quiescent(t, m)
}

// TestBinaryFrameRoundTrip drives the negotiated binary encoding over
// TCP: the handshake, batched scoring, pipelining, error frames, and the
// rule that text frames sent before the handshake are answered before it.
func TestBinaryFrameRoundTrip(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
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

	// A text frame still in flight is answered before the handshake ack.
	if err := c.SendFrame(42, "PREDICT (1, 1) USING m"); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.ID != 42 || f.Err != "" {
		t.Fatalf("pre-handshake text frame: %+v, %v", f, err)
	}
	if err := c.Binary(); err != nil {
		t.Fatal(err)
	}

	// Pipeline binary frames; responses come back keyed by id.
	if err := c.SendBinPredict(7, "m", [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBinPredict(3, "m", [][]float64{{1, 1}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBinPredict(9, "nosuch", [][]float64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]Frame{}
	for i := 0; i < 3; i++ {
		f, err := c.ReadBinFrame()
		if err != nil {
			t.Fatal(err)
		}
		got[f.ID] = f
	}
	if f := got[7]; f.Err != "" || len(f.Scores) != 1 || f.Scores[0] < 5 {
		t.Fatalf("bin frame 7: %+v", f)
	}
	if f := got[3]; f.Err != "" || len(f.Scores) != 2 || f.Scores[0] < 5 || f.Scores[1] < 15 {
		t.Fatalf("bin frame 3: %+v", f)
	}
	if f := got[9]; f.Err == "" || !strings.Contains(f.Err, "SHOW MODELS") {
		t.Fatalf("bin frame 9 should carry the unknown-model hint: %+v", f)
	}

	// Client-side validation refuses what the wire format cannot carry.
	if err := c.SendBinPredict(0, "m", [][]float64{{1, 1}}); err == nil {
		t.Fatal("id 0 should be refused client-side")
	}
	if err := c.SendBinPredict(12, "m", [][]float64{{1, 1}, {2}}); err == nil {
		t.Fatal("ragged batch should be refused client-side")
	}
	if err := c.SendBinPredict(13, "m", nil); err == nil {
		t.Fatal("empty batch should be refused client-side")
	}

	// The connection still serves after every error above.
	if err := c.SendBinPredict(14, "m", [][]float64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadBinFrame(); err != nil || f.ID != 14 || f.Err != "" || len(f.Scores) != 1 {
		t.Fatalf("bin frame after errors: %+v, %v", f, err)
	}
}

// TestBinaryFrameChurnBounded is the fill-churn regression at the wire
// level: a tight retrain loop while binary frames hammer the model must
// leave the fill count bounded by the number of generations, not the
// number of requests — each response still internally consistent with
// one generation.
func TestBinaryFrameChurnBounded(t *testing.T) {
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

	const clients = 3
	const window = 8
	stop := make(chan struct{})
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Binary(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			id := uint64(0)
			points := [][]float64{{1, 1}, {3, 3}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < window; i++ {
					id++
					if err := cl.SendBinPredict(id, "m", points); err != nil {
						errc <- err
						return
					}
				}
				for i := 0; i < window; i++ {
					f, err := cl.ReadBinFrame()
					if err != nil {
						errc <- err
						return
					}
					if f.Err != "" {
						if strings.Contains(f.Err, "busy") {
							continue
						}
						errc <- fmt.Errorf("frame %d: %s", f.ID, f.Err)
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

	// Tight synchronous retrain loop: every commit bumps the generation
	// under the hammering clients.
	const retrains = 10
	for i := 0; i < retrains; i++ {
		name := []string{"neg", "pos"}[i%2]
		if _, err := ctrl.Exec(fmt.Sprintf(trainSignFmt, name, "")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Fill accounting: one initial fill, then per retrain at most the
	// post-commit refill plus a churned request's decode+retry. Pre-fix,
	// every request racing a retrain re-filled through the mutex and this
	// count tracked the request rate instead.
	_, fills := m.Plane().Cache().Stats()
	if max := uint64(1 + retrains*(1+fillAttemptsWire)); fills > max {
		t.Fatalf("fill churn did not converge: %d fills for %d retrains (want <= %d)", fills, retrains, max)
	}
	quiescent(t, m)
}

// fillAttemptsWire mirrors serve's fillAttempts bound for the churn math
// above without exporting it.
const fillAttemptsWire = 2

// TestShowServingE2E checks SHOW SERVING's counters against a workload
// the test itself drove.
func TestShowServingE2E(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1,
		ServeInflight: 1, ServeQueue: 4, ServeModelQueue: 1})
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

	// The TRAIN commit refilled the cache (1 fill); 5 predicts are hits.
	const preds = 5
	for id := uint64(1); id <= preds; id++ {
		if err := c.SendFrame(id, "PREDICT (1, 1) USING m"); err != nil {
			t.Fatal(err)
		}
		if f, err := c.ReadFrame(); err != nil || f.Err != "" {
			t.Fatalf("frame %d: %+v, %v", id, f, err)
		}
	}
	// And one shed against a fake model name: with the only global slot
	// held, the first request books ghost's single queue position and the
	// second is shed at the model level.
	hold, err := m.Plane().Gate().Admit()
	if err != nil {
		t.Fatal(err)
	}
	hold.WaitOrCancel(nil)
	cancel := make(chan struct{})
	var wg sync.WaitGroup
	noReply := func([]float64, error) { t.Error("a canceled ghost request replied") }
	if err := m.Plane().Go("ghost", [][]float64{{1, 1}}, cancel, &wg, noReply); err != nil {
		t.Fatalf("ghost's queue position should admit: %v", err)
	}
	if err := m.Plane().Go("ghost", [][]float64{{1, 1}}, cancel, &wg, noReply); !strings.Contains(fmt.Sprint(err), "busy") {
		t.Fatalf("second ghost request should shed busy, got %v", err)
	}
	defer func() {
		close(cancel)
		wg.Wait()
		hold.Release()
		quiescent(t, m)
	}()

	body, err := c.Exec("SHOW SERVING;")
	if err != nil {
		t.Fatal(err)
	}
	var mLine, ghostLine string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "model m ") {
			mLine = line
		}
		if strings.HasPrefix(line, "model ghost") {
			ghostLine = line
		}
	}
	if mLine == "" || ghostLine == "" {
		t.Fatalf("SHOW SERVING missing model lines:\n%s", body)
	}
	if !strings.Contains(mLine, fmt.Sprintf("hits=%-6d", preds)) ||
		!strings.Contains(mLine, "fills=1") || !strings.Contains(mLine, "sheds=0") {
		t.Fatalf("m line counters: %q (want hits=%d fills=1 sheds=0)", mLine, preds)
	}
	if !strings.Contains(ghostLine, "sheds=1") {
		t.Fatalf("ghost line counters: %q (want sheds=1)", ghostLine)
	}
	if !strings.Contains(body, "gate inflight=") {
		t.Fatalf("SHOW SERVING missing gate summary:\n%s", body)
	}
}

// TestBinFrameZeroAlloc pins the acceptance contract for the binary
// encoding: the steady-state request path — decode, admit, score, encode
// — performs zero heap allocations.
func TestBinFrameZeroAlloc(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{Workers: 1})
	defer m.Drain()
	seedSignSets(t, m)
	sess := m.NewSession(discard{})
	if err := sess.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}

	req, err := appendBinRequest(nil, 1, "m", [][]float64{{1, 1}, {3, 3}, {0.5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	payload := req[4:] // handle takes the payload, the loop strips the length
	b := binSession{plane: m.Plane()}
	if !b.handle(payload, nil) { // warm: fill, scratch, buffers, model memo
		t.Fatal("handle reported teardown")
	}
	if f, err := binFrame(b.out[4:]); err != nil || f.Err != "" || len(f.Scores) != 3 {
		t.Fatalf("warm-up response: %+v, %v", f, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !b.handle(payload, nil) {
			t.Fatal("handle reported teardown")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state binary frame path allocates %v/op, want 0", allocs)
	}

	// The two codec halves a healthy handle never reaches: the read
	// loop's frame reader and the error encoder, both over reused buffers.
	rd := bytes.NewReader(req)
	var frame []byte
	out := wire.AppendErr(nil, 1, "warm")
	allocs = testing.AllocsPerRun(200, func() {
		rd.Reset(req)
		if _, err := wire.ReadFrame(rd, &frame); err != nil {
			t.Fatal(err)
		}
		out = wire.AppendErr(out[:0], 7, "busy: retry_after_ms=3")
	})
	if allocs != 0 {
		t.Fatalf("frame read + error encode allocate %v/op, want 0", allocs)
	}
}

// discard is an io.Writer for sessions whose output nobody reads.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServingPredictBinary measures the server-side binary frame
// path (decode → admit → score → encode) without TCP, batch sizes 1 and
// 8. Allocations are reported; the CI bench smoke asserts 0 allocs/op.
func BenchmarkServingPredictBinary(b *testing.B) {
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			m := NewManager(engine.NewCatalog(), Options{Workers: 1})
			seedSignSets(b, m)
			sess := m.NewSession(discard{})
			if err := sess.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
				b.Fatal(err)
			}
			points := make([][]float64, batch)
			for i := range points {
				points[i] = []float64{1, 1}
			}
			req, err := appendBinRequest(nil, 1, "m", points)
			if err != nil {
				b.Fatal(err)
			}
			payload := req[4:]
			bs := binSession{plane: m.Plane()}
			bs.handle(payload, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bs.handle(payload, nil) {
					b.Fatal("handle reported teardown")
				}
			}
		})
	}
}
