package server

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
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
	if m.wal == nil {
		return nil
	}
	clean := m.wal.consumeCleanShutdown()
	ids, err := m.wal.jobIDs()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		if !clean {
			m.logger.Info("journal empty; nothing to recover")
		}
		return nil
	}
	m.logger.Info("replaying coordinator journal",
		"jobs", len(ids), "clean_shutdown", clean)
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
		m.finalizeDistributed(j)
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

	j = m.registerRecoveredLocked(id, key, spec, plan)
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
		j.state = JobFailed
		j.err = cause.Error()
		j.finished = m.now()
		m.met.recoveryFailed.Inc()
		m.met.events.Append(telemetry.EventJobFailed, &j.id, &j.err, -1, -1)
		m.logger.Error("journal replay failed", "job", id, "error", cause)
		return j, false, nil

	case filed:
		// The run is filed — the crash hit between the store's atomic
		// rename and journal removal. Nothing left to do but tidy.
		j.state = JobDone
		j.finished = m.now()
		j.wires = nil
		for i := range j.shards {
			j.shards[i].State = "done"
		}
		j.shardsDone = len(j.shards)
		j.tracesDone = j.tracesTotal
		_ = m.wal.remove(id)
		m.met.recoveryDone.Inc()
		return j, false, nil
	}

	// The job is live again: it owns its cache key, counts as running,
	// and keeps journaling into its reopened file.
	m.active[j.key] = j
	m.met.jobsRunning.Add(1)
	m.met.events.Append(telemetry.EventJobRunning, &j.id, nil, -1, -1)

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
// registered job. A record inconsistent with the plan is corruption;
// duplicates (the crash-between-journal-and-ack retry) replay
// first-wins, exactly like the live accept path.
func (m *jobMgr) replayLocked(j *job, recs []walRecord) error {
	var scratch ingestBuf // one inflate buffer for all of the job's result records
	for _, rec := range recs {
		switch rec.Type {
		case walLease:
			if rec.Idx < 0 || rec.Idx >= len(j.shards) {
				return fmt.Errorf("journal replay: lease record for shard %d outside plan of %d",
					rec.Idx, len(j.shards))
			}
			sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
			if sh.State == "done" {
				continue
			}
			switch rec.Event {
			case walGrant:
				sh.State = "leased"
				sh.Worker = rec.Worker
				l.token = rec.Token
				l.worker = rec.Worker
				l.expires = rec.Expires
				l.granted = rec.Time
				l.batchN = rec.BatchN
				if rec.Seq > l.seq {
					l.seq = rec.Seq
				}
			case walExpire:
				// Mirror the live eviction (evictLeaseLocked): a live
				// speculative twin at expiry was promoted to primary, not
				// returned to the pool.
				if l.specToken != "" {
					l.token, l.worker, l.expires = l.specToken, l.specWorker, l.specExpires
					l.granted, l.batchN = rec.Time, 1
					l.specToken, l.specWorker, l.specExpires = "", "", time.Time{}
					sh.Worker = l.worker
				} else {
					sh.State = "pending"
					sh.Worker = ""
					l.token, l.worker = "", ""
				}
			case walSpecGrant:
				l.specToken = rec.Token
				l.specWorker = rec.Worker
				l.specExpires = rec.Expires
				if rec.Seq > l.seq {
					l.seq = rec.Seq
				}
			case walSpecExpire:
				l.specToken, l.specWorker, l.specExpires = "", "", time.Time{}
			}
		case walResult:
			if rec.Idx < 0 || rec.Idx >= len(j.shards) {
				return fmt.Errorf("journal replay: result record for shard %d outside plan of %d",
					rec.Idx, len(j.shards))
			}
			if j.wires[rec.Idx] != nil {
				continue // duplicate append from a retried upload; first wins
			}
			// The body goes back through the upload path's own bounded
			// decoder and payload checks: bytes that would not be accepted
			// over HTTP are not accepted off disk either.
			var req leaseRequest
			if err := scratch.decodeJSON(rec.Body, rec.Enc, maxResultBytes, &req); err != nil {
				return fmt.Errorf("journal replay: result record for shard %d: %w", rec.Idx, err)
			}
			if req.Result == nil {
				return fmt.Errorf("journal replay: result record for shard %d has no payload", rec.Idx)
			}
			if f := checkWire(j, rec.Idx, req.Result); f != nil {
				return fmt.Errorf("journal replay: result record for shard %d: %w", rec.Idx, f)
			}
			sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
			j.wires[rec.Idx] = req.Result
			l.doneToken = rec.Token
			sh.State = "done"
			sh.Worker = rec.Worker
			sh.Events = req.Result.Stats.Events
			sh.ElapsedSeconds = req.Result.Stats.Elapsed.Seconds()
			j.shardsDone++
			j.tracesDone += sh.Traces
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

// registerRecoveredLocked builds and registers a recovered distributed
// job skeleton (state running, all shards pending — replay refines
// it). Callers hold m.mu.
func (m *jobMgr) registerRecoveredLocked(id, key string, spec campaign.Spec, plan []campaign.ShardInfo) *job {
	j := &job{
		id:        id,
		key:       key,
		spec:      spec,
		state:     JobRunning,
		execution: campaign.ExecutionDistributed,
		pos:       len(m.order),
		submitted: m.now(),
		started:   m.now(),
		shards:    make([]ShardProgress, len(plan)),
		leases:    make([]shardLease, len(plan)),
		wires:     make([]*campaign.ShardResultWire, len(plan)),
	}
	for i, sh := range plan {
		j.shards[i] = ShardProgress{ShardInfo: sh, State: "pending"}
		j.tracesTotal += sh.Traces
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	return j
}

// bumpNextIDLocked keeps fresh job IDs above every recovered one, so a
// new job can never collide with (and truncate) a recovered journal.
func (m *jobMgr) bumpNextIDLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
}
