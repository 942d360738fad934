// Package locks seeds the deadlock-shaped bug classes lockorder must
// catch: nested exclusive name-lock scopes, raw __meta lock keys, output
// written inside a lock scope, and *Locked helpers called outside the
// critical section (the decode-storm class).
package locks

import (
	"fmt"
	"io"
	"sync"
)

// Guard mirrors the sqlish.Guard contract shape.
type Guard interface {
	Lock(name string) (unlock func())
	RLock(name string) (unlock func())
}

// session mirrors sqlish.Session's scoped lock helpers: fn runs holding
// the name lock, released in a defer.
type session struct{ g Guard }

func (s *session) withLock(name string, fn func() error) error {
	defer s.g.Lock(name)()
	return fn()
}

func (s *session) withRLock(name string, fn func() error) error {
	defer s.g.RLock(name)()
	return fn()
}

func shadowName(name string) string { return name + "__shadow" }

func nothing() error { return nil }

// badNested holds two exclusive name locks at once.
func badNested(s *session) error {
	return s.withLock("alpha", func() error {
		return s.withLock("beta", nothing) // want `exclusive name lock taken while another`
	})
}

// okSequential closes one scope before opening the next.
func okSequential(s *session) error {
	if err := s.withLock("alpha", nothing); err != nil {
		return err
	}
	return s.withLock("beta", nothing)
}

// okShadowSwap is the sanctioned replace-and-fill nesting: the shadow key
// is disjoint from the base key by construction.
func okShadowSwap(s *session, name string) error {
	return s.withLock(shadowName(name), func() error {
		return s.withLock(name, nothing)
	})
}

// okReadThenWrite holds a shared lock only; rule A constrains exclusive
// pairs.
func okReadThenWrite(s *session) error {
	return s.withRLock("alpha", func() error {
		return s.withLock("beta", nothing)
	})
}

// badMetaKey locks the side table's raw name, missing every writer that
// locks the collapsed base key.
func badMetaKey(g Guard) {
	u := g.Lock("digits__meta") // want `raw lock on a __meta key bypasses lockKey's collapse`
	u()
}

// badMetaConcat builds the bypassing key dynamically.
func badMetaConcat(g Guard, model string) {
	u := g.RLock(model + "__meta") // want `raw lock on a __meta key bypasses lockKey's collapse`
	u()
}

// badPrintUnderLock writes to the session output inside the lock scope:
// if out is a network connection, one stalled client write stalls every
// writer queued on the table's exclusive lock.
func badPrintUnderLock(s *session, out io.Writer, rows int) error {
	return s.withRLock("papers", func() error {
		fmt.Fprintf(out, "table has %d rows\n", rows) // want `output written while a name lock`
		return nil
	})
}

// okPrintAfterUnlock computes inside the scope and prints after it.
func okPrintAfterUnlock(s *session, out io.Writer, count func() int) error {
	var rows int
	if err := s.withRLock("papers", func() error {
		rows = count()
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "table has %d rows\n", rows)
	return nil
}

// cache mirrors the serving cache's publishLocked contract.
type cache struct {
	mu      sync.Mutex
	entries map[string]int
}

func (c *cache) publishLocked(k string) { c.entries[k] = 1 }

// refreshLocked is itself *Locked: its callers own the mutex.
func (c *cache) refreshLocked(k string) { c.publishLocked(k) }

// badPublish calls the *Locked helper with no mutex held — the
// decode-storm shape, where concurrent fills each publish their own
// entry.
func badPublish(c *cache, k string) {
	c.publishLocked(k) // want `publishLocked is a \*Locked method`
}

// okPublish hoists the call into the critical section.
func okPublish(c *cache, k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishLocked(k)
}
