package server

import (
	"repro/internal/failpoint"
)

// Journal compaction: the seal-then-checkpoint protocol that keeps a
// long-lived coordinator's journal O(pending work) instead of
// O(history).
//
// The fast path (maybeSealLocked) runs under mgr.mu right after a
// synced append batch: when the active segment is past the byte cap it
// ROLLS from segment s to segment s+2, reserving s+1 for a checkpoint,
// and queues a request for the single compactor goroutine. The slow
// path (compactJob) snapshots the job's entire replayable state under
// the lock, then — off the lock — gzips it, writes it to a temp file,
// fsyncs, and atomically renames it into place as segment s+1. Only
// after the rename are the superseded segments (≤ s) unlinked.
//
// Crash windows, by construction:
//
//   - before the rename: the checkpoint exists only as a temp file;
//     the journal reads as the complete old chain. Recovery tidies the
//     temp file and replays as if compaction never started.
//   - after the rename, before the unlinks (the CompactMidSwap
//     failpoint): both the old chain and the checkpoint are on disk;
//     recovery picks the highest submit/checkpoint base — the
//     checkpoint — and tidies the stale chain below it.
//   - after the unlinks: the journal is checkpoint + tail, the steady
//     state.
//
// Never both replayed, never neither available.

// defaultMaxOpenShards is the admission watermark over queued jobs plus
// running distributed shards; Config.MaxOpenShards overrides.
const defaultMaxOpenShards = 4096

// maxCompactBacklog bounds the compactor queue; when it is full a seal
// simply skips queueing — the next seal retries, and an uncompacted
// journal is only larger, never wrong.
const maxCompactBacklog = 64

// compactReq asks the compactor to materialize the checkpoint segment
// a seal reserved.
type compactReq struct {
	jobID string
	cpSeq int
}

// maybeSealLocked rolls a job's active journal segment once it exceeds
// the byte cap and queues the reserved checkpoint for the compactor.
// Callers hold m.mu and have already synced their appends (a sealed
// segment must be fully durable).
func (m *jobMgr) maybeSealLocked(j *job) {
	if j.wal == nil || m.wal == nil || j.compacting || m.closed {
		return // closed: compactCh is gone
	}
	if j.wal.size < m.wal.capBytes() {
		return
	}
	sealed := j.wal.seq
	if err := m.wal.roll(j.id, j.wal, sealed+2); err != nil {
		m.logger.Error("journal seal", "job", j.id, "error", err)
		return
	}
	j.compacting = true
	select {
	case m.compactCh <- compactReq{jobID: j.id, cpSeq: sealed + 1}:
	default:
		// Backlogged compactor: leave the sealed chain in place. The next
		// seal reserves a higher checkpoint number that supersedes this
		// one too.
		j.compacting = false
		m.logger.Warn("journal compactor backlogged; seal left uncompacted", "job", j.id)
	}
}

// compactJob writes one reserved checkpoint segment and unlinks the
// chain it supersedes. Runs on the compactor goroutine.
func (m *jobMgr) compactJob(req compactReq) {
	m.mu.Lock()
	j := m.jobs[req.jobID]
	if j == nil || j.wal == nil {
		// The job finished or failed between seal and compaction; its
		// journal was already removed or terminally closed.
		if j != nil {
			j.compacting = false
		}
		m.mu.Unlock()
		return
	}
	snap, err := m.snapshotLocked(j)
	now := m.now()
	m.mu.Unlock()
	if err != nil {
		m.clearCompacting(req.jobID)
		m.logger.Error("journal checkpoint snapshot", "job", req.jobID, "error", err)
		return
	}
	enc, err := encodeCheckpoint(snap)
	if err != nil {
		m.clearCompacting(req.jobID)
		m.logger.Error("journal checkpoint encode", "job", req.jobID, "error", err)
		return
	}
	n, err := m.wal.writeCheckpointSegment(req.jobID, req.cpSeq, &walRecord{
		Type: walCheckpoint, Job: req.jobID, Key: snap.Key, Snap: enc, Time: now,
	})
	if err != nil {
		m.clearCompacting(req.jobID)
		m.logger.Error("journal checkpoint write", "job", req.jobID, "error", err)
		return
	}
	// The crash-mid-swap window: checkpoint renamed into place, old
	// chain not yet unlinked. Env-armed, the process dies here; a test
	// hook error skips the unlinks, leaving exactly the both-on-disk
	// state recovery must resolve.
	if err := failpoint.Check(failpoint.CompactMidSwap); err != nil {
		m.clearCompacting(req.jobID)
		m.logger.Error("failpoint abort mid-compaction", "job", req.jobID, "error", err)
		return
	}
	if err := m.wal.removeSegmentsBelow(req.jobID, req.cpSeq); err != nil {
		m.logger.Error("journal compaction unlink", "job", req.jobID, "error", err)
	}
	m.met.journalCompactions.Inc()
	m.met.journalCheckpointBytes.Add(uint64(n))
	m.mu.Lock()
	if j := m.jobs[req.jobID]; j != nil {
		j.compacting = false
		if j.wal == nil {
			// The job completed while the checkpoint was being written: its
			// journal chain was removed, and the fresh checkpoint segment
			// must not survive as an orphan that recovery would resurrect.
			if err := m.wal.remove(req.jobID); err != nil {
				m.logger.Error("journal remove after late checkpoint", "job", req.jobID, "error", err)
			}
		}
	}
	m.mu.Unlock()
	m.logger.Info("journal compacted", "job", req.jobID,
		"checkpoint_seq", req.cpSeq, "checkpoint_bytes", n)
}

func (m *jobMgr) clearCompacting(jobID string) {
	m.mu.Lock()
	if j := m.jobs[jobID]; j != nil {
		j.compacting = false
	}
	m.mu.Unlock()
}

// snapshotLocked captures a job's full replayable state as a
// checkpoint payload. Callers hold m.mu. The snapshot may include
// records already appended to the post-seal active segment; replaying
// that tail on top is idempotent (results dedup first-wins, grants
// overwrite).
func (m *jobMgr) snapshotLocked(j *job) (*cpState, error) {
	specBytes, err := j.spec.Canonical()
	if err != nil {
		return nil, err
	}
	st := &cpState{
		Key:      j.key,
		Spec:     specBytes,
		Shards:   make([]cpShard, len(j.shards)),
		DurEWMA:  j.durEWMA,
		DurMax:   j.durMax,
		DurCount: j.durCount,
	}
	for i := range j.shards {
		sh := &j.shards[i]
		l := &j.leases[i]
		st.Shards[i] = cpShard{
			State:       sh.State,
			Worker:      sh.Worker,
			Seq:         l.seq,
			Token:       l.token,
			Expires:     l.expires,
			Granted:     l.granted,
			BatchN:      l.batchN,
			DoneToken:   l.doneToken,
			SpecToken:   l.specToken,
			SpecWorker:  l.specWorker,
			SpecExpires: l.specExpires,
			Wire:        j.wires[i],
		}
	}
	return st, nil
}
