package server

import (
	"fmt"

	"repro/internal/apiclient"
	"repro/internal/campaign"
)

// Restart recovery: replaying the write-ahead journal (journal.go)
// back into the job manager before the server starts answering. Each
// journal file resolves to one of four outcomes:
//
//	already_done  the merged run is in the store (the crash hit after
//	              Put's atomic rename, before journal removal) — the
//	              job is registered done and its journal deleted.
//	failed        a terminal failed record, mid-file corruption, a
//	              truncated/unparseable submission record, records
//	              inconsistent with the plan, or a journal that cannot
//	              be reopened for appending — the job is registered
//	              failed (clients see job_failed, never a panic) and
//	              the journal kept as evidence.
//	completed     every shard's result was journaled but the merge
//	              never filed — recovery finishes the merge itself;
//	              no worker runs again.
//	resumed       the common case: accepted shards restored from their
//	              journaled upload bodies, the lease table restored
//	              (tokens, holders, per-shard seq high-water), and only
//	              the genuinely pending shards re-exposed for claiming.
//
// Restoring leases verbatim matters twice over. The seq high-water
// keeps post-restart token strings (jobID.idx.seq) from colliding with
// tokens an earlier process handed out; and a pre-crash worker that is
// still executing can upload under its old token — the restored lease
// is its shard's current lease even if lapsed, exactly the
// expired-but-unevicted acceptance path — so a restart costs at most
// the re-execution that lease expiry would have forced anyway.
//
// recover runs single-threaded before the listener opens; it is the
// one writer of manager state at that point, so it takes mgr.mu only
// to share the locked helpers.

func (m *jobMgr) recover() error {
	ids, err := m.wal.jobIDs()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		m.logger.Info("journal empty; nothing to recover")
		return nil
	}
	m.logger.Info("replaying coordinator journal", "jobs", len(ids))
	var finalize []*job
	for _, id := range ids {
		j, complete, err := m.recoverJob(id)
		if err != nil {
			return err
		}
		if complete {
			finalize = append(finalize, j)
		}
		m.logger.Info("recovered job", "job", id, "state", j.state,
			"shards_done", j.shardsDone, "shards_total", len(j.shards))
	}
	// Complete merges outside any lock, after every journal is replayed
	// — the same path the completing upload would have run.
	for _, j := range finalize {
		m.finalize(j)
	}
	return nil
}

// recoverJob replays one journal into a registered job. complete marks
// a job whose every shard landed pre-crash; the caller finishes its
// merge. The returned error is only for unreadable journal I/O —
// damaged content becomes a failed job, never an error.
func (m *jobMgr) recoverJob(id string) (j *job, complete bool, err error) {
	rep, err := m.wal.readWAL(id)
	if err != nil {
		return nil, false, err
	}
	if rep.tornTail {
		// A crash tore the final append. Nothing torn was ever
		// acknowledged (fsync-before-ack), so dropping it is safe.
		m.met.journalTorn.Inc()
		m.logger.Warn("dropped torn journal tail", "job", id)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.bumpNextIDLocked(id)

	// The first record carries everything the plan rebuild needs: the
	// submission's canonical spec and cache key.
	var (
		spec  campaign.Spec
		key   string
		plan  []campaign.ShardInfo
		cause error
	)
	if len(rep.records) == 0 || rep.records[0].Type != walSubmit || rep.records[0].Job != id {
		cause = fmt.Errorf("journal truncated: no submission record for %s", id)
	} else {
		key = rep.records[0].Key
		spec, plan, cause = submittedPlan(rep.records[0].Spec)
		if cause == nil && (key == "" || len(plan) == 0) {
			cause = fmt.Errorf("journal submission record: empty key or plan")
		}
	}
	if rep.corrupt != nil {
		cause = rep.corrupt // says more than "truncated" when line 1 is the damage
	}

	if cause == nil && spec.Execution != campaign.ExecutionDistributed {
		cause = fmt.Errorf("journal submission record: %q job has no journal to recover", spec.Execution)
	}

	// Running from the start; replay refines the all-pending lease table.
	j = m.newJobLocked(id, key, spec, plan)
	j.start(m.now())
	if cause == nil {
		cause = m.replayLocked(j, rep.records[1:])
	}
	if cause == nil {
		if _, dup := m.active[j.key]; dup {
			cause = fmt.Errorf("journal replay: a second journal already recovered key %.12s", j.key)
		}
	}
	filed := cause == nil && m.store.Has(j.key)
	if cause == nil && !filed {
		// The job is about to be live again and must keep journaling. One
		// whose file cannot be reopened is failed, not resumed: every
		// later ack would promise durability the coordinator cannot give.
		j.wal, cause = m.wal.openAppend(id, rep.size)
	}

	switch {
	case cause != nil:
		// Surfaced as job_failed on every artifact route; the journal
		// file stays on disk as evidence (and so the failure survives
		// further restarts).
		j.state = apiclient.JobFailed
		j.err = cause.Error()
		j.finished = m.now()
		m.met.recoveryFailed.Inc()
		m.logLocked(j, apiclient.EventFailed, nil, j.err)
		m.logger.Error("journal replay failed", "job", id, "error", cause)
		return j, false, nil

	case filed:
		// The run is filed — the crash hit between the store's atomic
		// rename and journal removal. Nothing left to do but tidy.
		j.finish(m.now())
		m.logLocked(j, apiclient.EventDone, nil, "")
		_ = m.wal.remove(id)
		m.met.recoveryDone.Inc()
		return j, false, nil
	}

	// The job is live again: it owns its cache key, counts as running,
	// and keeps journaling into its reopened file.
	m.active[j.key] = j
	m.met.jobsRunning.Add(1)
	m.logLocked(j, apiclient.EventRunning, nil, "")

	if j.shardsDone == len(j.shards) {
		// Every shard landed pre-crash; only the merge is missing.
		j.finalizing = true
		m.met.recoveryCompleted.Inc()
		return j, true, nil
	}
	// Pending shards will be claimed and executed: this process runs
	// (part of) a campaign.
	m.openShards += len(j.shards) - j.shardsDone
	m.met.jobsStarted.Inc()
	m.met.recoveryResumed.Inc()
	return j, false, nil
}

// submittedPlan rebuilds the normalized spec and shard plan a
// submission record's canonical spec bytes describe.
func submittedPlan(raw []byte) (campaign.Spec, []campaign.ShardInfo, error) {
	parsed, err := campaign.ParseSpec(raw)
	if err != nil {
		return campaign.Spec{}, nil, fmt.Errorf("journal submission record: %w", err)
	}
	spec := parsed.Normalized()
	cfg, err := spec.Config()
	if err != nil {
		return campaign.Spec{}, nil, fmt.Errorf("journal submission record: %w", err)
	}
	return spec, cfg.Shards(), nil
}

// replayLocked applies the post-submission records to a freshly
// registered job through the lease table's own job.apply; what is left
// here is what only replay needs: bounds checks, first-wins
// deduplication, and the bounded decode. A record inconsistent with the
// plan is corruption; duplicates (the crash-between-journal-and-ack
// retry) replay first-wins, exactly like the live accept path.
func (m *jobMgr) replayLocked(j *job, recs []walRecord) error {
	scratch := m.ingest.get() // one for all of the job's result records
	defer m.ingest.put(scratch)
	for _, rec := range recs {
		if (rec.Type == walLease || rec.Type == walResult) && (rec.Idx < 0 || rec.Idx >= len(j.shards)) {
			return fmt.Errorf("journal replay: %s record for shard %d outside plan of %d",
				rec.Type, rec.Idx, len(j.shards))
		}
		switch rec.Type {
		case walLease:
			if j.shards[rec.Idx].State == apiclient.ShardDone {
				continue
			}
			j.apply(rec, nil)
		case walResult:
			if j.shards[rec.Idx].State == apiclient.ShardDone {
				continue // duplicate append from a retried upload; first wins
			}
			// The body goes back through the upload path's own bounded
			// accept and payload checks: bytes that would not be accepted
			// over HTTP are not accepted off disk either. It is held as the
			// record's own bytes, exactly as the live path held its copy of
			// them.
			if rec.Enc != encGzip {
				return fmt.Errorf("journal replay: result record for shard %d has encoding %q", rec.Idx, rec.Enc)
			}
			u, err := scratch.acceptUpload(rec.Body, maxResultBytes)
			if err != nil {
				return fmt.Errorf("journal replay: result record for shard %d: %w", rec.Idx, err)
			}
			if f := checkResult(j, rec.Idx, &u.result.resultHead); f != nil {
				return fmt.Errorf("journal replay: result record for shard %d: %w", rec.Idx, f)
			}
			u.result.body = rec.Body
			j.apply(rec, &u.result)
			m.met.recoveryShards.Inc()
		case walFailed:
			return fmt.Errorf("recovered terminal failure: %s", rec.Error)
		case walSubmit:
			return fmt.Errorf("journal replay: second submission record")
		default:
			// Unknown record types are skipped, not fatal: a newer
			// process may have journaled kinds this binary predates.
		}
	}
	return nil
}

// bumpNextIDLocked keeps fresh job IDs above every recovered one, so a
// new job can never collide with (and truncate) a recovered journal.
func (m *jobMgr) bumpNextIDLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
}
