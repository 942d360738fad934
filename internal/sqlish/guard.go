package sqlish

import (
	"fmt"
	"strings"
)

// Guard serializes cross-session access to shared catalog tables. Keys
// are normalized table names: a model name guards both the coefficient
// table and its __meta side table, and any INTO destination guards the
// replace-and-fill window of that table. The zero case (a nil
// Session.Guard) means the session owns its catalog exclusively and no
// locking happens.
//
// Implementations must be deadlock-free under the session layer's
// discipline: a session holds at most one exclusive name lock, apart from
// a save's shadow-then-name pair (see the locking-protocol section of
// DESIGN.md), and withLock refuses any other nesting.
type Guard interface {
	// Lock takes the key's exclusive lock and returns its release.
	Lock(key LockKey) (unlock func())
	// RLock takes the key's shared lock and returns its release.
	RLock(key LockKey) (unlock func())
}

// LockKey is a table name normalized to its lock key. Its field is
// unexported, so only NewLockKey builds a named one and no caller can
// lock a raw "__meta" name.
type LockKey struct{ name string }

// NewLockKey normalizes a table name to its lock key: any chain of
// "__meta" suffixes collapses to the base name, so a model's coefficient
// table and its metadata side table always contend on one lock no matter
// which name a statement arrived with (the parser additionally rejects
// user-supplied __meta names, but a FROM scan of a side table must still
// exclude the model's writer).
func NewLockKey(name string) LockKey {
	for {
		base, ok := strings.CutSuffix(name, metaSuffix)
		if !ok {
			return LockKey{name}
		}
		name = base
	}
}

// String returns the normalized name.
func (k LockKey) String() string { return k.name }

// withLock runs fn holding the exclusive lock on a shared table name and
// releases it in a defer. These two helpers are the only callers of
// Guard.Lock / RLock: every lock window is a closure, so a path that
// forgets the unlock cannot be written. A session holds one exclusive key
// at a time; the only nesting allowed is name inside shadowName(name),
// fillAndSwap's commit. Any other nesting returns an error before it
// locks, with or without a Guard, so the first test to run such a path
// fails.
func (s *Session) withLock(name string, fn func() error) error {
	key := NewLockKey(name)
	if s.held != (LockKey{}) && s.held != NewLockKey(shadowName(name)) {
		return fmt.Errorf("sqlish: exclusive lock on %q requested while %q is held; a session nests only a save's shadow and name locks",
			key, s.held)
	}
	prev := s.held
	s.held = key
	defer func() { s.held = prev }()
	if s.Guard == nil {
		return fn()
	}
	defer s.Guard.Lock(key)()
	return fn()
}

// withRLock is withLock with the shared lock.
func (s *Session) withRLock(name string, fn func() error) error {
	if s.Guard == nil {
		return fn()
	}
	defer s.Guard.RLock(NewLockKey(name))()
	return fn()
}

// UnknownModelError reports a PREDICT / EVALUATE against a model name that
// was never trained (neither a coefficient table nor metadata exists).
// Front ends can detect it with errors.As to render the hint cleanly.
type UnknownModelError struct{ Model string }

// Error implements error.
func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("sqlish: unknown model %q — train one with TO TRAIN ... INTO %s, or SHOW MODELS to list saved models",
		e.Model, e.Model)
}
