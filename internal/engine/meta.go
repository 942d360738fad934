package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// catalogMeta is the on-disk description of a file catalog: table names and
// schemas. The heap files themselves live next to it as <name>.heap.
type catalogMeta struct {
	Tables []tableMeta `json:"tables"`
}

type tableMeta struct {
	Name    string       `json:"name"`
	Columns []columnMeta `json:"columns"`
	// PendingFrom is the swap protocol's generation marker: when set, the
	// table's committed data lives in the heap file of this (shadow) name,
	// awaiting its rename to <Name>.heap. The catalog.json rename that
	// publishes this marker IS the swap's commit point; recovery rolls the
	// file rename forward, so a crash anywhere after the marker lands
	// yields the complete new generation.
	PendingFrom string `json:"pending_from,omitempty"`
}

type columnMeta struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

const catalogFile = "catalog.json"

// FileBacked reports whether the catalog persists tables to disk.
func (c *Catalog) FileBacked() bool { return c.dir != "" }

// Save writes the catalog's table metadata to dir/catalog.json and flushes
// every table. Only meaningful for file catalogs.
func (c *Catalog) Save() error {
	if c.dir == "" {
		return fmt.Errorf("engine: Save requires a file catalog")
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	c.mu.Lock()
	for _, t := range c.tables {
		if err := t.Flush(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.mu.Unlock()
	return c.writeMeta(c.snapshotMeta(nil, nil, nil))
}

// SaveMeta writes dir/catalog.json without flushing any table, which would
// race the tables' writers; recovery uses it to persist a clean catalog.
// (Committed statements need no checkpoint: Swap's commit and marker clear
// each write the whole catalog.) Catalog metadata (names and schemas) is
// immutable per table, so the snapshot needs only a brief hold of the
// catalog mutex; the disk write happens outside it so concurrent sessions'
// Get/Create/Drop never stall behind a checkpoint.
func (c *Catalog) SaveMeta() error {
	if c.dir == "" {
		return fmt.Errorf("engine: SaveMeta requires a file catalog")
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.writeMeta(c.snapshotMeta(nil, nil, nil))
}

// snapshotMeta builds a catalog.json snapshot under the catalog mutex:
// every table except in-flight shadows and dropNames, plus — for a swap's
// commit — one entry per final name carrying its shadow's schema and a
// PendingFrom marker naming that shadow. Plain checkpoints pass three nil
// lists.
//
// In-flight shadow generations are not tables yet: checkpointing one
// would resurrect a half-filled heap after a crash. A table whose
// committed swap still owes its heap rename (a live process survived a
// post-commit failure) keeps its marker from c.pending in every snapshot
// until the rename lands — otherwise a later checkpoint would erase the
// reopened catalog's only clue that the data lives under the shadow heap
// name.
func (c *Catalog) snapshotMeta(finalNames, shadowNames, dropNames []string) catalogMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	skip := map[string]bool{}
	for _, n := range finalNames {
		skip[n] = true
	}
	for _, n := range dropNames {
		skip[n] = true
	}
	var meta catalogMeta
	add := func(name, pendingFrom string, schema Schema) {
		tm := tableMeta{Name: name, PendingFrom: pendingFrom}
		for _, col := range schema {
			tm.Columns = append(tm.Columns, columnMeta{Name: col.Name, Type: uint8(col.Type)})
		}
		meta.Tables = append(meta.Tables, tm)
	}
	for name, t := range c.tables {
		if !IsShadowName(name) && !skip[name] {
			add(name, c.pending[name], t.Schema)
		}
	}
	for i, final := range finalNames {
		add(final, shadowNames[i], c.tables[shadowNames[i]].Schema)
	}
	return meta
}

// writeMeta persists the snapshot atomically and durably (temp file +
// fsync + rename + directory fsync): a crash mid-write must leave the
// previous catalog.json intact, not a truncated JSON that bricks the next
// OpenFileCatalog — and once writeMeta returns, the rename itself must
// survive a crash, because the swap protocol uses exactly this rename as
// its commit point. Callers hold saveMu, so concurrent checkpoints cannot
// interleave on the temp file.
func (c *Catalog) writeMeta(meta catalogMeta) error {
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, catalogFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, catalogFile)); err != nil {
		return err
	}
	return syncDir(c.dir)
}

// syncDir fsyncs a directory so a just-committed rename in it is durable.
// Filesystems that refuse directory fsync (some CI mounts) don't get to
// fail the commit — the rename is still atomic, just not yet forced out.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// RecoveryReport summarizes what OpenFileCatalog's recovery sweep did, so
// the daemon can log an honest account of what a crash cost (usually:
// nothing).
type RecoveryReport struct {
	// Completed lists tables whose committed-but-unrenamed swap was rolled
	// forward (the crash landed between the commit rename and the heap
	// renames).
	Completed []string
	// Skipped maps table names recorded in catalog.json that were NOT
	// registered to the reason (missing heap, truncated heap, condemned
	// with its model/__meta partner, uncommitted shadow).
	Skipped map[string]string
	// Swept lists orphan files removed or quarantined (uncommitted shadow
	// heaps, heaps of skipped tables moved aside as *.heap.orphaned, stale
	// checkpoint temp files, quarantine files reaped past OrphanRetention).
	Swept []string
	// Quarantined maps registered table names to the pages the open-time
	// scrub quarantined: the table is live but serves strict scans with a
	// *CorruptPageError until rewritten (degraded reads skip the pages).
	// Model/__meta pair members never appear here — corrupt coefficient or
	// metadata pages condemn the pair into Skipped instead.
	Quarantined map[string][]int
	// Repaired maps table names to what the open repaired in place: a torn
	// (non-page-aligned) tail truncated back to the last full page.
	Repaired map[string]string
}

// Clean reports that recovery had nothing to repair.
func (r RecoveryReport) Clean() bool {
	return len(r.Completed) == 0 && len(r.Skipped) == 0 && len(r.Swept) == 0 &&
		len(r.Quarantined) == 0 && len(r.Repaired) == 0
}

// OpenFileCatalog loads a catalog previously written with Save, reopening
// every table's heap file. A missing catalog.json yields an empty catalog.
//
// Opening doubles as crash recovery for the shadow-swap protocol
// (Catalog.Swap), restoring the invariant that every registered table is a
// complete committed generation:
//
//  1. Entries carrying a generation marker (PendingFrom) had committed a
//     swap whose heap renames may not have happened — the shadow heap, if
//     still present, is renamed into place (roll-forward).
//  2. An entry whose heap file is missing — or truncated AND part of a
//     model/__meta pair — is NOT registered: the old behavior of silently
//     resurrecting it as an empty table is exactly the data-loss bug the
//     swap protocol fixes. Its pair partner is condemned with it, so a
//     model can never reopen as a coefficients/metadata mix; left-over
//     heaps are quarantined as *.heap.orphaned rather than reopened. A
//     truncated PLAIN table (no pair partner) is repaired instead: the
//     torn tail is cut back to the last full page and the loss reported.
//  3. Opening each survivor doubles as a scrub: every page is verified
//     and corrupt pages are quarantined. Model pair members with quarantined
//     pages are condemned (a model is never served degraded); plain
//     tables register with their corruption map surfaced in Quarantined.
//  4. Uncommitted shadow heaps (*__shadow.heap) and stale checkpoint temp
//     files are deleted, and quarantine files beyond OrphanRetention are
//     reaped so crash loops cannot fill the disk.
//
// What recovery found is recorded in the returned catalog's Recovery field.
func OpenFileCatalog(dir string, poolPages int) (*Catalog, error) {
	return OpenFileCatalogIO(dir, poolPages, IOHooks{})
}

// OpenFileCatalogIO is OpenFileCatalog with an I/O fault-injection layer
// installed before any heap is opened, so the recovery scrub's own reads
// run under injected faults — the harness for the corruption matrix.
func OpenFileCatalogIO(dir string, poolPages int, io IOHooks) (*Catalog, error) {
	c := NewFileCatalog(dir, poolPages)
	c.IO = io
	c.Recovery.Skipped = map[string]string{}
	c.Recovery.Quarantined = map[string][]int{}
	c.Recovery.Repaired = map[string]string{}
	b, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if os.IsNotExist(err) {
		c.sweepStrayFiles()
		c.reapOrphans()
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var meta catalogMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return nil, fmt.Errorf("engine: corrupt catalog.json: %w", err)
	}

	// Phase 1 — roll committed swaps forward: a generation marker means the
	// commit point passed, so the data in the shadow-named heap is THE
	// table; complete the rename the crash interrupted. (If the shadow heap
	// is gone, the rename already happened before the crash.)
	hadMarker := false
	for _, tm := range meta.Tables {
		if tm.PendingFrom == "" || IsShadowName(tm.Name) {
			continue
		}
		hadMarker = true
		if _, err := os.Stat(c.heapPath(tm.PendingFrom)); err == nil {
			if err := os.Rename(c.heapPath(tm.PendingFrom), c.heapPath(tm.Name)); err != nil {
				return nil, fmt.Errorf("engine: completing committed swap of %q: %w", tm.Name, err)
			}
			c.Recovery.Completed = append(c.Recovery.Completed, tm.Name)
		}
	}

	// Phase 2 — decide which entries are registrable on their own merits.
	entries := map[string]bool{}
	badHeap := map[string]string{}
	tornTail := map[string]bool{}
	for _, tm := range meta.Tables {
		if IsShadowName(tm.Name) {
			// A checkpoint raced another session's in-flight fill (older
			// format) — never a committed table.
			c.Recovery.Skipped[tm.Name] = "uncommitted shadow generation"
			continue
		}
		entries[tm.Name] = true
		st, err := os.Stat(c.heapPath(tm.Name))
		switch {
		case os.IsNotExist(err):
			badHeap[tm.Name] = "heap file missing"
		case err != nil:
			return nil, err
		case st.Size()%PageSize != 0:
			tornTail[tm.Name] = true
		}
	}
	// A torn (non-page-aligned) tail condemns a model pair member — a
	// model must never be silently shortened — but a plain table is
	// repaired at open: the partial page is cut and the loss reported.
	// Pair membership needs the full entry set, hence the second pass.
	isPairMember := func(name string) bool {
		return strings.HasSuffix(name, MetaSuffix) || entries[name+MetaSuffix]
	}
	repairTail := map[string]bool{}
	for name := range tornTail {
		if isPairMember(name) {
			badHeap[name] = "heap file truncated"
		} else {
			repairTail[name] = true
		}
	}

	// Phase 3 — condemn model/__meta pairs together: both tables of a model
	// commit in one swap, so registering one half would resurrect exactly
	// the coefficients-without-metadata (or vice versa) mix the protocol
	// exists to prevent. An orphan __meta entry with no base entry at all is
	// condemned too.
	skip := map[string]string{}
	for name, reason := range badHeap {
		skip[name] = reason
	}
	for name := range entries {
		if skip[name] != "" {
			continue
		}
		if base, isMeta := strings.CutSuffix(name, MetaSuffix); isMeta {
			switch {
			case !entries[base]:
				skip[name] = "orphan metadata (no model table entry)"
			case badHeap[base] != "":
				skip[name] = "model table " + base + ": " + badHeap[base]
			}
		} else if entries[name+MetaSuffix] && badHeap[name+MetaSuffix] != "" {
			skip[name] = "metadata side table: " + badHeap[name+MetaSuffix]
		}
	}

	// Phase 4 — register the survivors (each open doubles as a scrub);
	// quarantine the heaps of condemned entries so a later Create of the
	// same name starts empty instead of silently reopening stale rows.
	for _, tm := range meta.Tables {
		if IsShadowName(tm.Name) {
			continue
		}
		if reason, bad := skip[tm.Name]; bad {
			c.Recovery.Skipped[tm.Name] = reason
			c.quarantineHeap(tm.Name)
			continue
		}
		schema := make(Schema, 0, len(tm.Columns))
		for _, cm := range tm.Columns {
			schema = append(schema, Column{Name: cm.Name, Type: Type(cm.Type)})
		}
		t, repaired, err := c.create(tm.Name, schema, true, repairTail[tm.Name])
		if err != nil {
			// The heap cannot be opened at all (unreadable file). Same
			// treatment as a missing heap — clean absence, partner
			// condemned below.
			c.Recovery.Skipped[tm.Name] = fmt.Sprintf("heap unreadable: %v", err)
			c.quarantineHeap(tm.Name)
			continue
		}
		if repaired > 0 {
			c.Recovery.Repaired[tm.Name] = fmt.Sprintf("truncated torn tail (%d bytes past the last full page)", repaired)
		}
		if q := t.QuarantinedPages(); len(q) > 0 {
			if isPairMember(tm.Name) {
				// Corrupt pages in a model's coefficients or metadata
				// condemn the member — a model is never served degraded —
				// and the late partner closure below condemns its other
				// half, keeping PR 4's pair-atomicity.
				c.Recovery.Skipped[tm.Name] = fmt.Sprintf("%d corrupt pages (model pairs are never served degraded)", len(q))
				delete(c.tables, tm.Name)
				_ = t.Close()
				c.quarantineHeap(tm.Name)
				continue
			}
			pages := make([]int, 0, len(q))
			for p := range q {
				pages = append(pages, p)
			}
			sort.Ints(pages)
			c.Recovery.Quarantined[tm.Name] = pages
		}
	}
	// Late partner closure: an open-time scan failure in phase 4 condemns a
	// partner that may already be registered. (Snapshot the skip set first —
	// the loop adds the partners it condemns.)
	skippedNow := make(map[string]string, len(c.Recovery.Skipped))
	for name, reason := range c.Recovery.Skipped {
		skippedNow[name] = reason
	}
	for name, reason := range skippedNow {
		partner := name + MetaSuffix
		if base, isMeta := strings.CutSuffix(name, MetaSuffix); isMeta {
			partner = base
		}
		if _, ok := c.tables[partner]; ok {
			c.Recovery.Skipped[partner] = "partner " + name + ": " + reason
			t := c.tables[partner]
			delete(c.tables, partner)
			_ = t.Close()
			c.quarantineHeap(partner)
		}
	}

	c.sweepStrayFiles()
	c.quarantineUnreferencedHeaps()
	c.reapOrphans()

	// If recovery consumed a generation marker or changed anything, persist
	// a clean marker-free checkpoint NOW: a marker left in catalog.json
	// would, at a later recovery, rename whatever fresh (possibly
	// half-filled, uncommitted) shadow heap happens to exist over the
	// committed generation. Recovery must be once, not latent.
	if hadMarker || !c.Recovery.Clean() {
		if err := c.SaveMeta(); err != nil {
			return nil, fmt.Errorf("engine: persisting recovered catalog: %w", err)
		}
	}
	return c, nil
}

// quarantineUnreferencedHeaps moves aside every *.heap file that no
// catalog entry references. At open time nothing else is live, so such a
// file is garbage from a crash window — a heap retired by a swap's
// dropNames whose os.Remove never ran, or a table created but killed
// before its first checkpoint (lost either way: its entry never reached
// catalog.json). Quarantining rather than reopening keeps a later Create
// of the same name from silently resurrecting stale rows.
func (c *Catalog) quarantineUnreferencedHeaps() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".heap") {
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".heap")
		if _, ok := c.tables[base]; ok || IsShadowName(base) {
			continue // registered, or already handled by the shadow sweep
		}
		if _, skipped := c.Recovery.Skipped[base]; skipped {
			continue // condemned entries were quarantined in their own pass
		}
		c.quarantineHeap(base)
	}
}

// quarantineHeap moves a condemned table's heap file aside (preserving the
// bytes for forensics without letting anything reopen them as a table).
// Each quarantine gets its own numbered file — a crash loop that condemns
// the same table at every open must not overwrite the forensic copy of the
// previous crash; reapOrphans bounds how many accumulate.
func (c *Catalog) quarantineHeap(name string) {
	hp := c.heapPath(name)
	if _, err := os.Stat(hp); err != nil {
		return
	}
	dst := hp + ".orphaned"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.orphaned.%d", hp, i)
	}
	if os.Rename(hp, dst) == nil {
		c.Recovery.Swept = append(c.Recovery.Swept, name+".heap -> "+filepath.Base(dst))
	}
}

// OrphanRetention bounds how many *.heap.orphaned quarantine files a
// catalog directory retains (newest first by modification time). Repeated
// crash loops would otherwise accumulate one forensic copy per crash until
// the disk fills.
var OrphanRetention = 8

// reapOrphans enforces OrphanRetention, recording what it removed in
// Recovery.Swept.
func (c *Catalog) reapOrphans() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type orphan struct {
		name string
		mod  time.Time
	}
	var orphans []orphan
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), ".heap.orphaned") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		orphans = append(orphans, orphan{e.Name(), fi.ModTime()})
	}
	if len(orphans) <= OrphanRetention {
		return
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].mod.After(orphans[j].mod) })
	for _, o := range orphans[OrphanRetention:] {
		if os.Remove(filepath.Join(c.dir, o.name)) == nil {
			c.Recovery.Swept = append(c.Recovery.Swept, "reaped "+o.name)
		}
	}
}

// sweepStrayFiles deletes uncommitted shadow heaps and stale checkpoint
// temp files. By the time it runs, every committed swap has been rolled
// forward, so any remaining *__shadow.heap is an abandoned fill window.
func (c *Catalog) sweepStrayFiles() {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, ShadowSuffix+".heap") && os.Remove(filepath.Join(c.dir, n)) == nil {
			c.Recovery.Swept = append(c.Recovery.Swept, n)
		}
	}
	os.Remove(filepath.Join(c.dir, catalogFile+".tmp"))
}
