// Package failpoint is the test-only fault-injection layer: named
// points in production code paths that tests and crash harnesses arm
// to fail on purpose. A point's name encodes its site and failure mode
// (e.g. "server.accept-result:crash-after-journal"); unarmed points
// cost one mutex-free map lookup behind an armed-anywhere fast path
// and change nothing.
//
// Two arming mechanisms:
//
//   - Environment: REPRO_FAILPOINT lists comma-separated point names.
//     A point armed this way crashes the process the first time it is
//     hit — os.Exit(137), the conventional SIGKILL status, with no
//     deferred cleanup, no flushes, no graceful anything — which is
//     how the crash-smoke CI job kills a real coordinator at an exact
//     instruction boundary instead of racing a timer against kill -9.
//   - Hooks: tests running in-process call SetHook(name, fn). The
//     hook's returned error is surfaced by Check at the site, letting
//     a test simulate "the work before this point happened, the work
//     after it did not" without losing the process.
//
// Production builds carry the points; they are inert unless armed, and
// nothing outside tests and the crash harness sets REPRO_FAILPOINT.
package failpoint

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	mu sync.Mutex
	// armed holds the env-armed crash points; hooks the test-installed
	// callbacks. Both are keyed by the full point name.
	armed map[string]bool
	hooks map[string]func() error
	// anyArmed lets Check bail without the mutex when nothing anywhere
	// is armed — the production fast path.
	anyArmed atomic.Bool
	initOnce sync.Once
)

// initFromEnv parses REPRO_FAILPOINT once, at first use.
func initFromEnv() {
	initOnce.Do(func() {
		mu.Lock()
		defer mu.Unlock()
		if armed == nil {
			armed = make(map[string]bool)
		}
		if hooks == nil {
			hooks = make(map[string]func() error)
		}
		for _, name := range strings.Split(os.Getenv("REPRO_FAILPOINT"), ",") {
			if name = strings.TrimSpace(name); name != "" {
				armed[name] = true
				anyArmed.Store(true)
			}
		}
	})
}

// Check fires the named point. Unarmed, it returns nil. Armed via a
// test hook, it returns the hook's error (nil lets execution continue,
// so hooks can be one-shot). Armed via REPRO_FAILPOINT, it crashes the
// process on the spot.
func Check(name string) error {
	if !anyArmed.Load() {
		initFromEnv()
		if !anyArmed.Load() {
			return nil
		}
	}
	mu.Lock()
	hook := hooks[name]
	crash := armed[name]
	mu.Unlock()
	if hook != nil {
		return hook()
	}
	if crash {
		// An abrupt exit: stderr is best-effort, nothing is drained.
		fmt.Fprintf(os.Stderr, "failpoint: crashing at %s\n", name)
		os.Exit(137)
	}
	return nil
}

// SetHook arms a point with an in-process callback and returns its
// disarm function. The callback runs on whatever goroutine hits the
// point; it must be safe for that.
func SetHook(name string, fn func() error) (remove func()) {
	initFromEnv()
	mu.Lock()
	defer mu.Unlock()
	hooks[name] = fn
	anyArmed.Store(true)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		delete(hooks, name)
		if len(hooks) == 0 && len(armed) == 0 {
			anyArmed.Store(false)
		}
	}
}

// The journal/recovery points the coordinator places. Names are part
// of the crash-harness contract (scripts/crash_smoke.sh arms them by
// string), so treat them like API.
const (
	// AcceptResultAfterJournal sits between an accepted shard result's
	// fsync'd journal append and the in-memory state update + 200.
	// Crashing here proves the WAL discipline: the restarted
	// coordinator owns the result, the worker never got its ack.
	AcceptResultAfterJournal = "server.accept-result:crash-after-journal"
	// FinalizeBeforeStore sits between the last accepted shard and the
	// merged run's filing. Crashing here leaves a complete journal and
	// no store entry; recovery must finish the merge by itself.
	FinalizeBeforeStore = "server.finalize:crash-before-store"
)
