// Package freelist is the one bounded free list the shard-result path
// recycles its large buffers through: the worker's upload encoders
// (apiclient) and the coordinator's request-body scratch (server).
//
// It is a mutex and a slice, not a sync.Pool: the pool is emptied by
// every GC cycle, which would make what an upload allocates depend on
// when the collector last ran. DESIGN.md §13.2 tabulates both users.
package freelist

import "sync"

const (
	// Slots bounds a List. A worker uploads one shard at a time and a
	// coordinator serves a handful of uploads at once; the slack is for
	// callers that share one.
	Slots = 4
	// RetainBytes is the most buffer capacity an item may take back onto
	// a List: a paper-scale upload is ≈ 70 KB of gzip and ≈ 2 MB of
	// JSON, and one oversized body must not stay resident for the life
	// of the process. Each user trims its item against it before Put.
	RetainBytes = 8 << 20
)

// List is a bounded free list of *T. The zero value is empty and ready.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns the most recently put item, or a new zero T.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// Put hands x back; past Slots items it is dropped for the collector.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < Slots {
		l.free = append(l.free, x)
	}
}

// Len reports how many items are waiting on the list.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
