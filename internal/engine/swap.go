package engine

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

// ErrInjectedCrash is the sentinel a CatalogHooks hook returns to simulate
// a SIGKILL at that point of the swap protocol: Swap aborts immediately,
// running none of its remaining steps and no cleanup, leaving the on-disk
// state exactly as a dying process would. Callers that normally clean up
// after a failed save must skip cleanup for this error (the "process" is
// dead; recovery at the next open is what gets tested).
var ErrInjectedCrash = errors.New("engine: injected crash (fault-injection hook)")

// CatalogHooks are fault-injection points inside Catalog.Swap, one per
// distinct crash window of the protocol. Each may return ErrInjectedCrash
// to freeze the protocol at that instant. Production code leaves them nil.
type CatalogHooks struct {
	// BeforeShadowSync runs after the shadow generation is filled, before
	// its heaps are fsynced. A crash here loses only the shadow.
	BeforeShadowSync func(finals []string) error
	// AfterShadowSync runs after the shadow heaps are durable, before the
	// catalog.json commit rename. A crash here still loses only the shadow.
	AfterShadowSync func(finals []string) error
	// AfterCommit runs after the catalog.json rename — the commit point —
	// before any heap file is renamed. A crash here must recover to the
	// complete NEW generation (roll-forward).
	AfterCommit func(finals []string) error
	// AfterHeapRename runs after each individual shadow→final heap rename,
	// i.e. inside the window where a model's coefficient heap is renamed
	// but its __meta heap is not yet.
	AfterHeapRename func(final string) error
	// BeforeMarkerClear runs after all heap renames, before the checkpoint
	// that clears the generation markers.
	BeforeMarkerClear func(finals []string) error
}

func runHook(h func([]string) error, finals []string) error {
	if h == nil {
		return nil
	}
	return h(finals)
}

// Swap atomically publishes new table generations: each shadowNames[i]
// (a complete, filled table registered under a reserved *__shadow name)
// replaces finalNames[i], and every dropNames entry that exists is removed,
// all at one commit point. dropNames lets a caller retire a side table the
// new generation does not carry (PREDICT INTO over an old model name drops
// the model's __meta) without a separate non-atomic step.
//
// On file catalogs the protocol is:
//
//	flush + fsync shadow heaps              (new generation is durable)
//	write catalog.json listing the FINAL names with PendingFrom markers
//	    pointing at the shadow heaps        ← COMMIT (one atomic rename)
//	retarget the in-memory catalog entries
//	rename <shadow>.heap → <final>.heap, remove dropped heaps
//	write catalog.json again without markers
//
// A crash before the commit rename leaves the previous generation fully
// intact (the shadow heaps are swept at the next open); a crash anywhere
// after it recovers to the complete new generation (OpenFileCatalog rolls
// the heap renames forward off the markers). There is no window in which a
// reopened catalog sees an empty table or half of a generation.
//
// Callers replacing shared tables must hold the final names' exclusive
// locks across the call — but only across the call: the expensive fill
// happened on the shadow before Swap, which is the point of the protocol.
func (c *Catalog) Swap(finalNames, shadowNames, dropNames []string) error {
	if len(finalNames) != len(shadowNames) {
		return fmt.Errorf("engine: Swap: %d final names vs %d shadow names",
			len(finalNames), len(shadowNames))
	}
	shadows := make([]*Table, len(shadowNames))
	c.mu.Lock()
	for i := range finalNames {
		if finalNames[i] == shadowNames[i] {
			c.mu.Unlock()
			return fmt.Errorf("engine: Swap: %q swaps with itself", finalNames[i])
		}
		sh, ok := c.tables[shadowNames[i]]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("engine: Swap: no shadow table %q", shadowNames[i])
		}
		shadows[i] = sh
		// The backstop for the statement layer's best-effort pre-check: a
		// final name that would collide case-insensitively with a different
		// existing heap file must fail here, before the commit, never by
		// renaming two logical tables onto one file.
		if _, exists := c.tables[finalNames[i]]; !exists && c.dir != "" {
			for existing := range c.tables {
				if existing != finalNames[i] && strings.EqualFold(existing, finalNames[i]) {
					c.mu.Unlock()
					return fmt.Errorf("engine: Swap: %q collides case-insensitively with existing %q",
						finalNames[i], existing)
				}
			}
		}
	}
	c.mu.Unlock()

	// Durability point for the new generation: after this, the shadow heaps
	// survive a crash even though nothing references them yet.
	if err := runHook(c.Hooks.BeforeShadowSync, finalNames); err != nil {
		return err
	}
	for _, sh := range shadows {
		if err := sh.Sync(); err != nil {
			return err
		}
	}
	if err := runHook(c.Hooks.AfterShadowSync, finalNames); err != nil {
		return err
	}

	if c.dir != "" {
		// Hold the checkpoint lock across commit → marker clear so no
		// concurrent SaveMeta can overwrite the marker snapshot with a view
		// of the pre-swap in-memory state.
		c.saveMu.Lock()
		defer c.saveMu.Unlock()
		c.mu.Lock()
		// Record the owed renames BEFORE the commit lands: from here until
		// each rename succeeds, every checkpoint (ours or a later
		// SaveMeta's, should this call die mid-protocol in a process that
		// survives it) re-emits the generation marker, so a reopen always
		// knows the roll-forward is pending.
		for i := range finalNames {
			c.pending[finalNames[i]] = shadowNames[i]
		}
		c.mu.Unlock()
		if err := c.writeMeta(c.snapshotMeta(finalNames, shadowNames, dropNames)); err != nil {
			// Commit never landed: nothing is owed.
			c.mu.Lock()
			for _, f := range finalNames {
				delete(c.pending, f)
			}
			c.mu.Unlock()
			return err
		}
		// COMMITTED. Everything below is roll-forward; errors are reported
		// but the new generation is already the one a reopen would load.
		if err := runHook(c.Hooks.AfterCommit, finalNames); err != nil {
			return err
		}
	}

	c.mu.Lock()
	var closeErr error
	for i := range finalNames {
		if old, ok := c.tables[finalNames[i]]; ok {
			if err := old.Close(); err != nil && closeErr == nil {
				closeErr = err
			}
		}
		delete(c.tables, shadowNames[i])
		shadows[i].Name = finalNames[i]
		c.tables[finalNames[i]] = shadows[i]
	}
	for _, dn := range dropNames {
		if t, ok := c.tables[dn]; ok {
			delete(c.tables, dn)
			if err := t.Close(); err != nil && closeErr == nil {
				closeErr = err
			}
		}
	}
	// Generation bumps come strictly after the retarget, while mu is still
	// held: a lock-free snapshot holder that observes the new generation
	// number must find the new table behind the name, never the old one —
	// the bump is the swap's linearization point for generation readers.
	// (Holders that race ahead of the bump briefly serve the previous
	// generation, which is exactly the documented reader semantics.)
	for _, f := range finalNames {
		c.bumpGen(f)
	}
	for _, dn := range dropNames {
		c.bumpGen(dn)
	}
	c.mu.Unlock()

	if c.dir == "" {
		return closeErr
	}
	for i := range finalNames {
		if err := os.Rename(c.heapPath(shadowNames[i]), c.heapPath(finalNames[i])); err != nil {
			return errors.Join(closeErr, err)
		}
		c.mu.Lock()
		delete(c.pending, finalNames[i]) // this rename is no longer owed
		c.mu.Unlock()
		if c.Hooks.AfterHeapRename != nil {
			if err := c.Hooks.AfterHeapRename(finalNames[i]); err != nil {
				return err
			}
		}
	}
	for _, dn := range dropNames {
		if err := os.Remove(c.heapPath(dn)); err != nil && !os.IsNotExist(err) && closeErr == nil {
			closeErr = err
		}
	}
	if err := runHook(c.Hooks.BeforeMarkerClear, finalNames); err != nil {
		return err
	}
	if err := c.writeMeta(c.snapshotMeta(nil, nil, nil)); err != nil {
		return errors.Join(closeErr, err)
	}
	return closeErr
}

// DiscardShadows drops every reserved shadow table still registered — the
// daemon's shutdown calls it after draining jobs so an abandoned fill
// window neither reaches the final catalog save nor leaves an orphan heap
// for the next open to sweep.
func (c *Catalog) DiscardShadows() error {
	c.mu.Lock()
	var names []string
	for n := range c.tables {
		if IsShadowName(n) {
			names = append(names, n)
		}
	}
	c.mu.Unlock()
	var first error
	for _, n := range names {
		if err := c.Drop(n); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Abandon releases every table's file handle WITHOUT flushing tail pages —
// the crash-simulation teardown: fault-injection tests "kill" a catalog
// with it before reopening the directory, so nothing a real SIGKILL would
// have lost gets written by the test's cleanup.
func (c *Catalog) Abandon() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tables {
		_ = t.heap.Abandon()
	}
	c.tables = make(map[string]*Table)
}
