package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/apiclient"
)

// Store is the control plane's disk-backed, content-addressed result
// store. A completed campaign is filed under its spec's cache key (hex
// SHA-256 of the canonical spec with execution-shape knobs stripped —
// campaign.Spec.CacheKey) as a directory of two artifacts:
//
//	<data dir>/<key[:2]>/<key>/meta.json     apiclient.Report: the spec, determinism hash, counters, CE report
//	<data dir>/<key[:2]>/<key>/dataset.jsonl merged dataset, canonical JSON lines
//
// Entries filed by older builds also hold a spec.json, which nothing
// reads.
//
// Writes are atomic and durable: artifacts land in a temp directory,
// fsynced, that is renamed into place, and the rename is fsynced too, so
// a crash mid-write never leaves a half-cached run, readers never
// observe a partial entry, and a filed run survives the journal it
// replaces. An entry damaged on disk anyway is moved aside when the
// store is opened (<data dir>/quarantine/), so its spec runs again. The
// two-level fan-out keeps directory listings sane at large run counts.
type Store struct {
	dir string

	mu   sync.RWMutex
	keys map[string]bool
}

const (
	metaFile      = "meta.json"
	datasetFile   = "dataset.jsonl"
	quarantineDir = "quarantine"
)

// OpenStore opens (creating if needed) the store rooted at dir and
// indexes the completed runs already on disk. An entry whose meta.json
// does not parse, or whose dataset.jsonl is not the size meta.json
// records, is not indexed: it is moved under <dir>/quarantine/ and
// logged, and the next submission of its spec runs it again.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: store: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	st := &Store{dir: dir, keys: make(map[string]bool)}
	fans, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("server: store: %w", err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			// Only entries whose rename completed have a meta.json;
			// stray temp directories are ignored (and re-created runs
			// will simply overwrite them later).
			entry := filepath.Join(dir, fan.Name(), e.Name())
			if _, err := os.Stat(filepath.Join(entry, metaFile)); err != nil {
				continue
			}
			if damage := checkEntry(entry); damage != nil {
				moved, err := st.quarantine(entry, e.Name())
				if err != nil {
					return nil, fmt.Errorf("server: store: quarantine %s: %w", e.Name(), err)
				}
				logger.Error("store entry quarantined", "key", e.Name(), "reason", damage, "moved_to", moved)
				continue
			}
			st.keys[e.Name()] = true
		}
	}
	return st, nil
}

// checkEntry reports why a filed entry cannot be served: a meta.json
// that does not parse, or a dataset.jsonl of another size than it
// records.
func checkEntry(entry string) error {
	b, err := os.ReadFile(filepath.Join(entry, metaFile))
	if err != nil {
		return err
	}
	var meta apiclient.Report
	if err := json.Unmarshal(b, &meta); err != nil {
		return fmt.Errorf("meta.json: %w", err)
	}
	info, err := os.Stat(filepath.Join(entry, datasetFile))
	if err != nil {
		return err
	}
	if info.Size() != meta.DatasetBytes {
		return fmt.Errorf("dataset.jsonl holds %d bytes, meta.json records %d", info.Size(), meta.DatasetBytes)
	}
	return nil
}

// quarantine moves a damaged entry out of the index's reach, into a
// fresh directory under <data dir>/quarantine/, and returns where.
func (st *Store) quarantine(entry, key string) (string, error) {
	q := filepath.Join(st.dir, quarantineDir)
	if err := os.MkdirAll(q, 0o755); err != nil {
		return "", err
	}
	to, err := os.MkdirTemp(q, "")
	if err != nil {
		return "", err
	}
	to = filepath.Join(to, key)
	if err := os.Rename(entry, to); err != nil {
		return "", err
	}
	return to, syncDir(filepath.Dir(entry))
}

// path returns the final directory for a key.
func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key[:2], key)
}

// Has reports whether a completed run is cached under key.
func (st *Store) Has(key string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.keys[key]
}

// Len is the number of completed runs cached.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.keys)
}

// Put files a completed run under key, atomically: the two artifacts
// are written to a temp directory which is renamed into place. If the
// key is already present (a concurrent writer won), the new copy is
// discarded — content addressing guarantees the bytes are equivalent.
//
// The dataset is whatever writeDataset writes: it streams to the temp
// file and through a SHA-256 at once, so the store never holds a
// dataset in memory, and Put — the only party that sees the bytes that
// actually land — fills meta.DatasetSHA256 and meta.DatasetBytes from
// them. It returns the dataset's size.
func (st *Store) Put(key string, meta apiclient.Report, writeDataset func(io.Writer) error) (int64, error) {
	if len(key) < 3 {
		return 0, fmt.Errorf("server: store: malformed key %q", key)
	}
	fan := filepath.Join(st.dir, key[:2])
	newFan := false
	if err := os.Mkdir(fan, 0o755); err == nil {
		newFan = true
	} else if !errors.Is(err, os.ErrExist) {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	tmp, err := os.MkdirTemp(fan, ".put-*")
	if err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	f, err := os.Create(filepath.Join(tmp, datasetFile))
	if err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	sum := sha256.New()
	err = writeDataset(io.MultiWriter(sum, f))
	if err == nil {
		err = f.Sync()
	}
	info, statErr := f.Stat()
	if closeErr := f.Close(); err == nil {
		err = errors.Join(statErr, closeErr)
	}
	if err != nil {
		return 0, fmt.Errorf("server: store: write dataset: %w", err)
	}
	meta.DatasetSHA256 = hex.EncodeToString(sum.Sum(nil))
	meta.DatasetBytes = info.Size()
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("server: store: marshal meta: %w", err)
	}
	if err := writeFileSync(filepath.Join(tmp, metaFile), metaBytes); err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	if err := syncDir(tmp); err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.keys[key] {
		return meta.DatasetBytes, nil // lost the race; identical content is already filed
	}
	if err := os.Rename(tmp, st.path(key)); err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	// The rename is durable once the fan-out directory is, and a fan-out
	// this Put made once the data directory is.
	err = syncDir(fan)
	if err == nil && newFan {
		err = syncDir(st.dir)
	}
	if err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	st.keys[key] = true
	return meta.DatasetBytes, nil
}

// writeFileSync writes data to a new file at path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// syncDir fsyncs a directory, making the creations, renames and
// removals of its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Meta loads a cached run's metadata.
func (st *Store) Meta(key string) (apiclient.Report, error) {
	if !st.Has(key) {
		return apiclient.Report{}, os.ErrNotExist
	}
	b, err := os.ReadFile(filepath.Join(st.path(key), metaFile))
	if err != nil {
		return apiclient.Report{}, err
	}
	var m apiclient.Report
	if err := json.Unmarshal(b, &m); err != nil {
		return apiclient.Report{}, fmt.Errorf("server: store: meta for %s: %w", key, err)
	}
	return m, nil
}

// OpenDataset opens a cached run's dataset for streaming and returns
// its size.
func (st *Store) OpenDataset(key string) (io.ReadCloser, int64, error) {
	if !st.Has(key) {
		return nil, 0, os.ErrNotExist
	}
	f, err := os.Open(filepath.Join(st.path(key), datasetFile))
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}
