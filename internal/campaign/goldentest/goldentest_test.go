package goldentest

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFormatIsTheTable: what TestDeterminismGrid writes on a mismatch is
// a file to copy over small.golden as it stands.
func TestFormatIsTheTable(t *testing.T) {
	rows := Rows()
	if len(rows) != 3 {
		t.Fatalf("small.golden has %d rows, want one per scenario (3)", len(rows))
	}
	if got := Format(rows); got != Table() {
		t.Fatalf("Format(Rows()) differs from small.golden:\n%s", got)
	}
}

// TestNoCopies: small.golden is the one place a pinned hash is written.
// A Go file of the module, outside bench/, that holds one of its hashes
// fails here: read it through this package instead. (bench/ keeps its
// own golden file, held to the paper-scale specs.)
func TestNoCopies(t *testing.T) {
	hashes := map[string]string{}
	for _, r := range Rows() {
		hashes[r.Dataset] = r.Scenario + " dataset"
		hashes[r.RowsLazy] = r.Scenario + " rows-lazy"
		hashes[r.RowsEvents] = r.Scenario + " rows-events"
	}
	const root = "../../.."
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for h, what := range hashes {
			if bytes.Contains(src, []byte(h)) {
				t.Errorf("%s holds small.golden's %s hash %s…; read it through goldentest", rel, what, h[:8])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("scanned %d Go files; the walk misses the module", files)
	}
}
