package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
)

// Store is the control plane's disk-backed, content-addressed result
// store. A completed campaign is filed under its spec's cache key (hex
// SHA-256 of the canonical spec with execution-shape knobs stripped —
// campaign.Spec.CacheKey) as a directory of three artifacts:
//
//	<data dir>/<key[:2]>/<key>/spec.json     canonical submitted spec
//	<data dir>/<key[:2]>/<key>/meta.json     RunMeta: determinism hash, counters, CE report
//	<data dir>/<key[:2]>/<key>/dataset.jsonl merged dataset, canonical JSON lines
//
// Writes are atomic: artifacts land in a temp directory that is
// renamed into place, so a crash mid-write never leaves a half-cached
// run, and readers never observe a partial entry. The two-level fan-out
// keeps directory listings sane at large run counts.
type Store struct {
	dir string

	mu   sync.RWMutex
	keys map[string]bool
}

// RunMeta describes one cached campaign run: what ran, the determinism
// hash of its dataset, and its execution counters. It is the body of
// the store's meta.json and the API's run/report resources.
type RunMeta struct {
	Key  string        `json:"key"`
	Spec campaign.Spec `json:"spec"` // normalized (canonical form)
	// DatasetSHA256 is the SHA-256 of dataset.jsonl — by the campaign
	// determinism invariant, equal to cmd/determinism's hash for the
	// same spec, whatever execution shape either used.
	DatasetSHA256 string `json:"dataset_sha256"`
	DatasetBytes  int64  `json:"dataset_bytes"`
	Traces        int    `json:"traces"`
	Servers       int    `json:"servers"`
	Shards        int    `json:"shards"`
	// Events counters aggregate over shards; the phantom/replayed split
	// mirrors campaign.Result.
	Events             uint64    `json:"events"`
	PhantomEvents      uint64    `json:"events_phantom"`
	ReplayedBoundaries uint64    `json:"boundaries_replayed"`
	WallSeconds        float64   `json:"wall_seconds"`
	CompletedAt        time.Time `json:"completed_at"`
	// Congestion is the verbose-mode CE-mark report for congested
	// scenarios; nil for uncongested runs.
	Congestion *analysis.CEMarkReport `json:"congestion,omitempty"`
}

const (
	specFile    = "spec.json"
	metaFile    = "meta.json"
	datasetFile = "dataset.jsonl"
)

// OpenStore opens (creating if needed) the store rooted at dir and
// indexes the completed runs already on disk.
func OpenStore(dir string) (*Store, error) {
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
			if _, err := os.Stat(filepath.Join(dir, fan.Name(), e.Name(), metaFile)); err == nil {
				st.keys[e.Name()] = true
			}
		}
	}
	return st, nil
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

// Put files a completed run under key, atomically: the three artifacts
// are written to a temp directory which is renamed into place. If the
// key is already present (a concurrent writer won), the new copy is
// discarded — content addressing guarantees the bytes are equivalent.
//
// The dataset is whatever writeDataset writes: it streams to the temp
// file and through a SHA-256 at once, so the store never holds a
// dataset in memory, and Put — the only party that sees the bytes that
// actually land — fills meta.DatasetSHA256 and meta.DatasetBytes from
// them. It returns the dataset's size.
func (st *Store) Put(key string, spec []byte, meta RunMeta, writeDataset func(io.Writer) error) (int64, error) {
	if len(key) < 3 {
		return 0, fmt.Errorf("server: store: malformed key %q", key)
	}
	fan := filepath.Join(st.dir, key[:2])
	if err := os.MkdirAll(fan, 0o755); err != nil {
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
	for _, a := range []struct {
		name string
		data []byte
	}{
		{specFile, spec},
		{metaFile, metaBytes},
	} {
		if err := os.WriteFile(filepath.Join(tmp, a.name), a.data, 0o644); err != nil {
			return 0, fmt.Errorf("server: store: %w", err)
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.keys[key] {
		return meta.DatasetBytes, nil // lost the race; identical content is already filed
	}
	if err := os.Rename(tmp, st.path(key)); err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	st.keys[key] = true
	return meta.DatasetBytes, nil
}

// Meta loads a cached run's metadata.
func (st *Store) Meta(key string) (RunMeta, error) {
	if !st.Has(key) {
		return RunMeta{}, os.ErrNotExist
	}
	b, err := os.ReadFile(filepath.Join(st.path(key), metaFile))
	if err != nil {
		return RunMeta{}, err
	}
	var m RunMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return RunMeta{}, fmt.Errorf("server: store: meta for %s: %w", key, err)
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
