package sqlish

import (
	"fmt"
	"strings"
)

// Guard serializes cross-session access to shared catalog tables. Names
// are lock keys: a model name guards both the coefficient table and its
// __meta side table, and any INTO destination guards the replace-and-fill
// window of that table. The zero case (a nil Session.Guard) means the
// session owns its catalog exclusively and no locking happens.
//
// Implementations must be deadlock-free under the session layer's
// discipline: a session never holds two name locks at once (see the
// locking-protocol section of DESIGN.md).
type Guard interface {
	// Lock takes the name's exclusive lock and returns its release.
	Lock(name string) (unlock func())
	// RLock takes the name's shared lock and returns its release.
	RLock(name string) (unlock func())
}

// lockKey normalizes a table name to its lock key: any chain of "__meta"
// suffixes collapses to the base name, so a model's coefficient table and
// its metadata side table always contend on one lock no matter which name
// a statement arrived with (the parser additionally rejects user-supplied
// __meta names, but a FROM scan of a side table must still exclude the
// model's writer).
func lockKey(name string) string {
	for {
		base, ok := strings.CutSuffix(name, metaSuffix)
		if !ok {
			return name
		}
		name = base
	}
}

// withLock runs fn holding the exclusive lock on a shared table name and
// releases it in a defer (no lock without a Guard). These two helpers are
// the only callers of Guard.Lock / RLock: every lock window is a closure,
// so a path that forgets the unlock cannot be written.
func (s *Session) withLock(name string, fn func() error) error {
	if s.Guard == nil {
		return fn()
	}
	defer s.Guard.Lock(lockKey(name))()
	return fn()
}

// withRLock is withLock with the shared lock.
func (s *Session) withRLock(name string, fn func() error) error {
	if s.Guard == nil {
		return fn()
	}
	defer s.Guard.RLock(lockKey(name))()
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
