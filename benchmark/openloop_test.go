package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a clock the test moves: WaitUntil jumps to the deadline
// (never backwards) and sends advance it by their scripted cost.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) WaitUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

const us = time.Microsecond

// A slow send delays the requests behind it, and each is charged against
// its own original due time: the schedule is never re-based.
func TestSendScheduleKeepsDueTimes(t *testing.T) {
	clk := &fakeClock{}
	cost := func(i int) time.Duration {
		if i == 3 {
			return 450 * us
		}
		return 10 * us
	}
	var sentAt []time.Duration
	ol := &openLoop{clk: clk, interval: 100 * us, n: 10, send: func(i int) error {
		sentAt = append(sentAt, clk.now)
		clk.now += cost(i)
		return nil
	}}
	var total atomic.Int64
	total.Store(-1)
	lateness, err := ol.sendAll(&total)
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 10 {
		t.Errorf("total = %d, want 10", total.Load())
	}
	// Request 3 is sent on time at 300 and holds the sender until 750.
	wantSent := []time.Duration{0, 100, 200, 300, 750, 760, 770, 780, 800, 900}
	wantLate := []float64{0, 0, 0, 0, 350, 260, 170, 80, 0, 0}
	for i := range wantSent {
		if sentAt[i] != wantSent[i]*us {
			t.Errorf("request %d sent at %v, want %v", i, sentAt[i], wantSent[i]*us)
		}
		if lateness[i] != wantLate[i] {
			t.Errorf("request %d lateness %v us, want %v", i, lateness[i], wantLate[i])
		}
	}
}

// Latency runs from when a request was due, not from when it was sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	replies := []struct {
		i  int
		at time.Duration
	}{{0, 40 * us}, {1, 900 * us}, {2, 905 * us}}
	next := 0
	ol := &openLoop{clk: clk, interval: 100 * us, n: len(replies),
		send: func(int) error { return nil },
		recv: func() (int, bool, error) {
			r := replies[next]
			next++
			if r.at > clk.now {
				clk.now = r.at
			}
			return r.i, false, nil
		},
		abort: func() {},
	}
	// Drive the reader alone: the fake clock is not safe for two goroutines.
	var got []float64
	for range replies {
		i, _, _ := ol.recv()
		got = append(got, micros(clk.Now()-ol.due(i)))
	}
	// Request 2 was due at 200 µs; a reply at 905 µs is 705 µs late even
	// though it came 5 µs after the reply before it.
	want := []float64{40, 800, 705}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reply %d latency %v us, want %v", i, got[i], want[i])
		}
	}
}

// loopback answers every request after a fixed delay, failing every
// failEvery-th, through channels shaped like a connection.
type loopback struct {
	reqs      chan int
	failEvery int
}

func (l *loopback) send(i int) error { l.reqs <- i; return nil }
func (l *loopback) recv() (int, bool, error) {
	i, ok := <-l.reqs
	if !ok {
		return 0, false, errors.New("closed")
	}
	return i, l.failEvery > 0 && i%l.failEvery == 0, nil
}

func TestRunFixedCount(t *testing.T) {
	lb := &loopback{reqs: make(chan int, 1024), failEvery: 10}
	ol := &openLoop{clk: realClock{t0: time.Now()}, interval: 50 * us, n: 200,
		send: lb.send, recv: lb.recv, abort: func() { close(lb.reqs) }}
	res, err := ol.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 || res.Failed != 20 || len(res.Latency) != 180 || len(res.Lateness) != 200 {
		t.Errorf("sent %d failed %d latencies %d lateness %d", res.Sent, res.Failed, len(res.Latency), len(res.Lateness))
	}
}

// Stopping an open-ended loop must end the reader too, even when every
// reply had already been read when the stop arrived.
func TestRunUntilStopped(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		lb := &loopback{reqs: make(chan int, 1024)}
		stop := make(chan struct{})
		ol := &openLoop{clk: realClock{t0: time.Now()}, interval: 20 * us, stop: stop,
			send: lb.send, recv: lb.recv, abort: func() { close(lb.reqs) }}
		go func() { time.Sleep(2 * time.Millisecond); close(stop) }()
		done := make(chan struct{})
		var res openResult
		var err error
		go func() { res, err = ol.run(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("open loop did not stop")
		}
		if err != nil || res.Sent == 0 || len(res.Latency) != res.Sent {
			t.Fatalf("sent %d answered %d err %v", res.Sent, len(res.Latency), err)
		}
	}
}

func TestRunSendFailureUnblocksReader(t *testing.T) {
	lb := &loopback{reqs: make(chan int, 16)}
	boom := errors.New("boom")
	ol := &openLoop{clk: realClock{t0: time.Now()}, interval: 20 * us, n: 100,
		send: func(i int) error {
			if i == 5 {
				return boom
			}
			return lb.send(i)
		},
		recv: lb.recv, abort: func() { close(lb.reqs) }}
	if _, err := ol.run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
