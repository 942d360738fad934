package server

import (
	"sync"

	"bismarck/internal/sqlish"
)

// nameLocks is the per-model (more generally, per-table-name) reader/writer
// lock registry of the session manager: TRAIN persists a model under the
// name's write lock, PREDICT / EVALUATE load it under the read lock, so
// scoring statements see a stable model snapshot while a TRAIN on the same
// name is running — they serve the previous generation until the save
// commits, and never a half-written one.
//
// Entries are refcounted and evicted as soon as the last holder releases:
// names arrive from untrusted network statements once a catalog is served
// over TCP, so an attacker looping over random model names must not be
// able to grow the registry without bound. nameLocks implements
// sqlish.Guard.
type nameLocks struct {
	mu    sync.Mutex
	locks map[string]*nameLock
}

type nameLock struct {
	mu   sync.RWMutex
	refs int
}

// newNameLocks returns an empty registry.
func newNameLocks() *nameLocks {
	return &nameLocks{locks: make(map[string]*nameLock)}
}

// acquire resolves the name's lock entry and pins it. This is the
// manager-level lock of the documented order (manager → model → catalog):
// it is only ever held for the map access, never while blocking on a
// model lock.
func (nl *nameLocks) acquire(name string) *nameLock {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	l, ok := nl.locks[name]
	if !ok {
		l = &nameLock{}
		nl.locks[name] = l
	}
	l.refs++
	return l
}

// release unpins the entry, evicting it once nobody holds or waits on it.
// The pin spans the whole hold, so a name in use always resolves to the
// same RWMutex — eviction can only happen when no holder exists.
func (nl *nameLocks) release(name string, l *nameLock) {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	l.refs--
	if l.refs == 0 {
		delete(nl.locks, name)
	}
}

// Lock takes the key's exclusive lock and returns its release (call it
// exactly once).
func (nl *nameLocks) Lock(key sqlish.LockKey) func() {
	name := key.String()
	l := nl.acquire(name)
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		nl.release(name, l)
	}
}

// RLock takes the key's shared lock and returns its release (call it
// exactly once).
func (nl *nameLocks) RLock(key sqlish.LockKey) func() {
	name := key.String()
	l := nl.acquire(name)
	l.mu.RLock()
	return func() {
		l.mu.RUnlock()
		nl.release(name, l)
	}
}
