package engine

import (
	"os"
	"path/filepath"
	"testing"

	"bismarck/internal/vector"
)

func TestFileCatalogSaveAndReopen(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 4)
	schema := Schema{{Name: "id", Type: TInt64}, {Name: "v", Type: TDenseVec}}
	tbl, err := cat.Create("things", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		tbl.MustInsert(Tuple{I64(int64(i)), DenseV(vector.Dense{float64(i)})})
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := OpenFileCatalog(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	tbl2, err := cat2.Get("things")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumRows() != 25 {
		t.Fatalf("reopened rows = %d", tbl2.NumRows())
	}
	if len(tbl2.Schema) != 2 || tbl2.Schema[1].Type != TDenseVec {
		t.Fatalf("schema lost: %+v", tbl2.Schema)
	}
	// Data intact.
	sum := 0.0
	tbl2.Scan(func(tp Tuple) error {
		sum += tp[1].Dense[0]
		return nil
	})
	if sum != 300 { // 0+1+...+24
		t.Fatalf("sum = %v", sum)
	}
}

func TestOpenFileCatalogEmptyDir(t *testing.T) {
	cat, err := OpenFileCatalog(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if len(cat.Names()) != 0 {
		t.Fatal("expected empty catalog")
	}
}

func TestSaveRequiresFileCatalog(t *testing.T) {
	if err := NewCatalog().Save(); err == nil {
		t.Fatal("Save on mem catalog should fail")
	}
}

// TestOpenFileCatalogTrustsLegacyNames: names already recorded in a local
// catalog.json (possibly written under laxer rules) must not fail the
// whole catalog open — only new creations are validated.
func TestOpenFileCatalogTrustsLegacyNames(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 0)
	// Simulate a legacy name that today's Create would reject.
	if _, _, err := cat.create("we\tird", Schema{{Name: "x", Type: TInt64}}, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("fine", Schema{{Name: "x", Type: TInt64}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatalf("legacy catalog failed to open: %v", err)
	}
	defer re.Close()
	for _, name := range []string{"we\tird", "fine"} {
		if _, err := re.Get(name); err != nil {
			t.Errorf("table %q lost: %v", name, err)
		}
	}
	// New creations still validate.
	if _, err := re.Create("al\tso", Schema{{Name: "x", Type: TInt64}}); err == nil {
		t.Error("Create accepted a control-character name")
	}
}

// TestSaveMetaAtomicAndCrashSafe: the checkpoint goes through temp+rename
// so a torn write can never leave a truncated catalog.json, and a stale
// temp file from a crashed writer is ignored on reopen.
func TestSaveMetaAtomicAndCrashSafe(t *testing.T) {
	dir := t.TempDir()
	cat := NewFileCatalog(dir, 0)
	defer cat.Close()
	if _, err := cat.Create("m", Schema{{Name: "x", Type: TInt64}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// Simulate a crash mid-write of a later checkpoint: a corrupt temp
	// file must not affect reopening from the committed catalog.json.
	if err := os.WriteFile(filepath.Join(dir, "catalog.json.tmp"), []byte("{tor"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get("m"); err != nil {
		t.Fatal(err)
	}
}
