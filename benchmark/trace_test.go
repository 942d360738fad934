package main

import (
	"errors"
	"testing"
	"time"
)

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "stmt", Start: 0, End: 100 * ms, Parent: -1, Stmt: 1},
		// Replayed children: linked by Parent, not nested in time.
		{Name: "project", Start: 100 * ms, End: 130 * ms, Parent: 0, Stmt: 1},
		{Name: "epochs", Start: 130 * ms, End: 180 * ms, Parent: 0, Stmt: 1},
		// A grandchild counts against its own parent only.
		{Name: "kernel", Start: 135 * ms, End: 175 * ms, Parent: 2, Stmt: 1},
		// Two roots of one name add up.
		{Name: "micro", Start: 200 * ms, End: 210 * ms, Parent: -1},
		{Name: "micro", Start: 210 * ms, End: 215 * ms, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"stmt":    20 * time.Millisecond,
		"project": 30 * time.Millisecond,
		"epochs":  10 * time.Millisecond,
		"kernel":  40 * time.Millisecond,
		"micro":   15 * time.Millisecond,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestSelfTimeFlooredAtZero(t *testing.T) {
	spans := []span{
		{Name: "stmt", Start: 0, End: 10, Parent: -1},
		{Name: "replay", Start: 10, End: 30, Parent: 0}, // a replay slower than the original
	}
	if got := selfTimes(spans)["stmt"]; got != 0 {
		t.Errorf("self time = %v, want 0", got)
	}
}

func TestTracerRecordsFailedCalls(t *testing.T) {
	tr := newTracer()
	tick := time.Duration(0)
	tr.now = func() time.Duration { tick += time.Millisecond; return tick }
	boom := errors.New("boom")
	parent, _, _ := tr.do("outer", -1, 7, func() error { return nil })
	id, d, err := tr.do("inner", parent, 7, func() error { return boom })
	if err != boom || d != time.Millisecond {
		t.Fatalf("do returned %v, %v", d, err)
	}
	if s := tr.spans[id]; s.Name != "inner" || s.Parent != parent || s.Stmt != 7 || s.End-s.Start != int64(time.Millisecond) {
		t.Errorf("span = %+v", s)
	}
}
