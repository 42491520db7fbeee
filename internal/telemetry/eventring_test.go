package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestJournalAppendSnapshot(t *testing.T) {
	j := NewEventRing(64)
	job := "j-000001"
	vant := "ams-nl"
	j.Append(EventJobQueued, &job, nil, -1, -1)
	j.Append(EventJobRunning, &job, nil, -1, -1)
	j.Append(EventShardLeased, &job, &vant, 3, 0)
	j.Append(EventShardDone, &job, &vant, 3, 0)
	j.Append(EventJobDone, &job, nil, -1, -1)

	evs := j.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	wantKinds := []string{"queued", "running", "shard-leased", "shard-done", "done"}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if ev.Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i)
		}
		if ev.Job != job {
			t.Errorf("event %d job = %q, want %q", i, ev.Job, job)
		}
		if ev.Time.IsZero() {
			t.Errorf("event %d has zero time", i)
		}
	}
	if evs[2].Shard != 3 || evs[2].Slice != 0 || evs[2].Detail != vant {
		t.Errorf("shard event fields = %+v", evs[2])
	}
}

func TestJournalWrapKeepsNewest(t *testing.T) {
	j := NewEventRing(64) // rounds to exactly 64
	if len(j.slots) != 64 {
		t.Fatalf("cap = %d, want 64", len(j.slots))
	}
	jobs := make([]string, 100)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("j-%06d", i)
		j.Append(EventJobQueued, &jobs[i], nil, -1, -1)
	}
	evs := j.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot has %d events, want 64", len(evs))
	}
	if evs[0].Seq != 36 || evs[0].Job != "j-000036" {
		t.Errorf("oldest retained = seq %d job %q, want 36/j-000036", evs[0].Seq, evs[0].Job)
	}
	if evs[63].Seq != 99 || evs[63].Job != "j-000099" {
		t.Errorf("newest retained = seq %d job %q, want 99/j-000099", evs[63].Seq, evs[63].Job)
	}
}

func TestJournalJobFilter(t *testing.T) {
	j := NewEventRing(64)
	a, b := "j-000001", "j-000002"
	j.Append(EventJobQueued, &a, nil, -1, -1)
	j.Append(EventJobQueued, &b, nil, -1, -1)
	j.Append(EventJobDone, &a, nil, -1, -1)
	evs := j.JobEvents(a)
	if len(evs) != 2 || evs[0].Kind != "queued" || evs[1].Kind != "done" {
		t.Fatalf("JobEvents(%s) = %+v", a, evs)
	}
}

// TestJournalConcurrent has many writers lapping a small ring while
// readers snapshot continuously. Under -race this proves the seqlock
// protocol is data-race-free; the assertions prove no snapshot ever
// observes a torn entry (a ticket whose fields disagree with its seq).
func TestJournalConcurrent(t *testing.T) {
	j := NewEventRing(64)
	const writers = 8
	const perWriter = 5000

	// Each writer has its own identity string; entries record the
	// writer in Shard and the iteration in Slice, so a torn entry —
	// fields from two different appends — is detectable because job,
	// shard and detail must agree.
	ids := make([]string, writers)
	for w := range ids {
		ids[w] = fmt.Sprintf("j-%06d", w)
	}

	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	var readerWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, ev := range j.Snapshot() {
					if ev.Kind == "none" {
						t.Errorf("snapshot returned an unpublished slot: %+v", ev)
					}
					if ev.Job != ids[ev.Shard] {
						t.Errorf("torn entry: job %q but shard %d", ev.Job, ev.Shard)
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(EventShardDone, &ids[w], nil, int32(w), int32(i))
			}
		}(w)
	}
	wg.Wait()
	close(stopReaders)
	readerWg.Wait()

	if j.head.Load() != writers*perWriter {
		t.Fatalf("ring len = %d, want %d", j.head.Load(), writers*perWriter)
	}
	// After quiescence every retained entry is readable.
	if got := len(j.Snapshot()); got != len(j.slots) {
		t.Fatalf("quiescent snapshot has %d events, want %d", got, len(j.slots))
	}
}
