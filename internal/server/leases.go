package server

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/failpoint"
	"repro/internal/packet"
)

// The shard lease table: how a job hands its (vantage, slice) shards to
// workers — remote ones claiming over HTTP (a distributed job) or this
// process's loopback goroutines (a local job; see nextLocal in
// async_job_mgr.go). The state machine per shard is
//
//	pending ──claim──▶ leased ──result──▶ done
//	   ▲                  │
//	   └────eviction──────┘
//
// Every transition is one journal record, and job.apply is what a
// record does to the table: the live paths below build the record,
// journal it, apply it, and add what only a live coordinator has
// (metrics, logs, the job's event log); replay (recovery.go) applies
// the records it reads, so a restart cannot drift from what it restores.
//
// A lease is valid until evicted. Eviction happens when the TTL has
// passed AND the control plane notices — at a claim sweep, or on a
// heartbeat/upload arriving for a lapsed lease. Uploads are accepted
// iff the presented token is the shard's current (un-evicted) lease;
// because shard execution is deterministic, a slow worker whose lease
// lapsed but was never re-issued still uploads the correct bytes, so
// such uploads are accepted rather than wasted. Once a shard is done,
// re-uploads under the winning token are idempotent successes and
// anything else is stale_result — first writer wins. The spec-hash
// guard rejects uploads computed for a different spec before any of
// this, so a confused worker can never poison a job's merge.
//
// All lease state lives inside the job and is guarded by mgr.mu; time
// comes from mgr.now, an injected monotonic clock, so expiry tests
// never sleep.

// defaultLeaseTTL is the lease lifetime granted to workers when the
// server config does not override it.
const defaultLeaseTTL = 30 * time.Second

// speculateAfter is the straggler threshold as a multiple of the
// job's observed typical (EWMA) shard duration, scaled by the
// straggler's claim batch size (a worker executes its batch serially,
// so a batch of k legitimately needs ~k typical durations before its
// last shard even starts). A leased shard is never speculated before
// the slowest successful shard's duration has passed.
const speculateAfter = 3.0

// durEWMAAlpha weights the newest shard duration into the job's
// running estimate.
const durEWMAAlpha = 0.3

// shardLease is one shard's lease slot (meaningful while the shard is
// "leased", plus the doneToken once it is "done").
type shardLease struct {
	token   string
	worker  string
	expires time.Time
	// granted is when the current primary lease was issued and batchN
	// how many shards were granted alongside it — together the
	// straggler detector's inputs.
	granted time.Time
	batchN  int
	// seq counts token issuances for this shard (primary and
	// speculative); a grant with seq > 1 is a re-issue or twin.
	seq int
	// doneToken is the token whose upload won the shard; duplicate
	// uploads presenting it are idempotent successes.
	doneToken string
	// Speculative twin lease (straggler re-issue): a second live token
	// for the same shard, held by a different worker, racing the
	// primary. Whichever upload lands first wins; determinism makes the
	// bytes identical either way. Empty specToken means no twin.
	specToken   string
	specWorker  string
	specExpires time.Time
}

// distributedJobLocked resolves a worker-protocol job reference;
// callers hold m.mu.
func (m *jobMgr) distributedJobLocked(jobID string) (*job, error) {
	j, ok := m.jobs[jobID]
	if !ok {
		return nil, faultf(http.StatusNotFound, apiclient.CodeJobNotFound, "no such job %q", jobID)
	}
	if !j.distributed() {
		return nil, faultf(http.StatusConflict, apiclient.CodeJobNotDistributed,
			"job %s executes on the coordinator's loopback workers; its shards cannot be claimed", jobID)
	}
	return j, nil
}

// nextPending returns the first pending shard at or after from, or -1.
func (j *job) nextPending(from int) int {
	for i := from; i < len(j.shards); i++ {
		if j.shards[i].State == apiclient.ShardPending {
			return i
		}
	}
	return -1
}

// apply makes the transition a lease or result record describes, and
// logs it at the record's time; res is what a result record's shard
// keeps for the merge. It checks nothing — whether the transition is
// due is the caller's business.
func (j *job) apply(rec walRecord, res *heldResult) {
	sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
	if rec.Seq > l.seq {
		l.seq = rec.Seq
	}
	switch rec.Event {
	case walGrant, walSpecGrant:
		j.log(rec.Time, apiclient.EventShardLeased, sh, rec.Worker)
	case walExpire:
		j.log(rec.Time, apiclient.EventLeaseExpired, sh, l.worker)
	}
	switch {
	case rec.Type == walResult:
		j.log(rec.Time, apiclient.EventShardDone, sh, rec.Worker)
		// The lease tokens stay: the loser of a speculation race must
		// still ack "duplicate".
		servers := j.internServers(res.Servers)
		j.results[rec.Idx] = *res
		j.results[rec.Idx].Servers = servers
		l.doneToken = rec.Token
		sh.State, sh.Worker = apiclient.ShardDone, rec.Worker
		sh.Events = res.Stats.Events
		sh.ElapsedSeconds = res.Stats.Elapsed.Seconds()
		j.shardsDone++
		j.tracesDone += sh.Traces
		// Fold the shard's duration into the job's straggler baseline.
		if d := sh.ElapsedSeconds; d > 0 {
			if j.durCount == 0 {
				j.durEWMA = d
			} else {
				j.durEWMA = durEWMAAlpha*d + (1-durEWMAAlpha)*j.durEWMA
			}
			if d > j.durMax {
				j.durMax = d
			}
		}
		j.durCount++
	case rec.Event == walGrant:
		sh.State, sh.Worker = apiclient.ShardLeased, rec.Worker
		l.token, l.worker, l.expires = rec.Token, rec.Worker, rec.Expires
		l.granted, l.batchN = rec.Time, rec.BatchN
	case rec.Event == walSpecGrant:
		l.specToken, l.specWorker, l.specExpires = rec.Token, rec.Worker, rec.Expires
	case rec.Event == walExpire && l.specToken == "":
		sh.State, sh.Worker = apiclient.ShardPending, ""
	case rec.Event == walExpire:
		// A live speculative twin is promoted to primary (no record of
		// its own): the shard stays leased, to the speculating worker.
		l.token, l.worker, l.expires = l.specToken, l.specWorker, l.specExpires
		l.granted, l.batchN = rec.Time, 1
		sh.Worker = l.worker
		fallthrough
	case rec.Event == walSpecExpire:
		l.specToken, l.specWorker, l.specExpires = "", "", time.Time{}
	}
}

// internServers returns the job's copy of the server list servers, if
// an accepted shard already carries an equal one, or servers itself.
// Every shard probing the ground truth, and every slice of a vantage
// probing its discovered pool, carries the same list: held once, it
// costs a job 10 KB at paper scale instead of 10 KB a shard — a seventh
// of what the shard's compressed upload does.
func (j *job) internServers(servers []packet.Addr) []packet.Addr {
	for i := range j.results {
		if held := j.results[i].Servers; len(held) > 0 && slices.Equal(held, servers) {
			return held
		}
	}
	return servers
}

// sweepExpiredLocked evicts every lapsed lease in the job — shards
// return to "pending" (or their speculative twin is promoted). A local
// job's leases never lapse: their holders are goroutines of this
// process and cannot die alone. Callers hold m.mu.
func (m *jobMgr) sweepExpiredLocked(j *job, now time.Time) {
	if !j.distributed() {
		return
	}
	for i := range j.shards {
		if j.shards[i].State != apiclient.ShardLeased {
			continue
		}
		l := &j.leases[i]
		// A lapsed speculative twin expires first, so a dead twin is
		// never promoted by the primary eviction below.
		if l.specToken != "" && !l.specExpires.After(now) {
			m.expireLocked(j, i, walSpecExpire)
		}
		if !l.expires.After(now) {
			m.expireLocked(j, i, walExpire)
		}
	}
}

// expireLocked removes one shard's lapsed primary lease (walExpire) or
// speculative twin (walSpecExpire): counted and journaled. The record
// is not fsync'd: an eviction promises nothing to anyone, and a lost
// one merely means recovery sees a leased shard with a lapsed deadline,
// which the first claim sweep evicts again.
func (m *jobMgr) expireLocked(j *job, i int, event string) {
	sh := &j.shards[i]
	lapsed := j.leases[i].worker
	if event == walSpecExpire {
		lapsed = j.leases[i].specWorker
	}
	rec := walRecord{Type: walLease, Idx: i, Event: event, Time: m.now()}
	_ = m.walAppend(j, rec)
	j.apply(rec, nil)
	m.met.leaseExpiries.Inc()
	m.logger.Info("lease expired", "job", j.id, "shard", i, "event", event,
		"worker", lapsed, "state", sh.State, "holder", sh.Worker)
}

// speculationDueLocked reports whether a leased shard has straggled
// past the point where re-exposing it is cheaper than waiting: elapsed
// time since its grant exceeds speculateAfter × EWMA × batch size,
// and also the slowest successful shard so far. Requires at least one
// completed shard — there is no "typical duration" before that — and a
// distributed job: a loopback grant is never twinned.
func (m *jobMgr) speculationDueLocked(j *job, i int, now time.Time) bool {
	if j.durCount == 0 || j.durEWMA <= 0 || !j.distributed() {
		return false
	}
	l := &j.leases[i]
	if l.granted.IsZero() {
		return false
	}
	batch := l.batchN
	if batch < 1 {
		batch = 1
	}
	threshold := speculateAfter * j.durEWMA * float64(batch)
	if threshold < j.durMax {
		threshold = j.durMax
	}
	return now.Sub(l.granted).Seconds() > threshold
}

// grantLocked issues shard i's next lease token to worker: a primary
// lease, batch shards being granted together, or (twin) a speculative
// one racing a straggler's — the primary is NOT revoked, first upload
// wins, and determinism makes either winner's bytes correct. The record
// is appended unsynced; Claim syncs once per batch. Restored at
// recovery, grants keep the per-shard seq monotonic across restarts (no
// token is ever minted twice), let a pre-crash worker's upload land
// under its old token, and keep a post-restart race honest (the loser
// still acks "duplicate"). A failed append is logged, not fatal: a lost
// grant costs a re-execution, never correctness. Callers hold m.mu.
func (m *jobMgr) grantLocked(j *job, i int, worker string, now time.Time, batch int, twin bool) apiclient.ClaimedShard {
	sh := &j.shards[i]
	rec := walRecord{
		Type: walLease, Idx: i, Event: walGrant, Worker: worker, Seq: j.leases[i].seq + 1,
		Expires: now.Add(m.leaseTTL), BatchN: batch, Time: now,
	}
	rec.Token = fmt.Sprintf("%s.%d.%d", j.id, i, rec.Seq)
	if twin {
		rec.Event = walSpecGrant
		m.met.specIssued.Inc()
		m.logger.Info("speculative lease issued", "job", j.id, "shard", i,
			"straggler", j.leases[i].worker, "speculator", worker)
	} else if rec.Seq > 1 {
		m.met.leaseReissues.Inc()
	}
	if err := m.walAppend(j, rec); err != nil {
		m.logger.Error("journal lease grant", "job", j.id, "shard", i, "error", err)
	}
	j.apply(rec, nil)
	m.met.leaseGrants.Inc()
	return apiclient.ClaimedShard{Index: i, ShardInfo: sh.ShardInfo, Lease: rec.Token, ExpiresAt: rec.Expires, Speculative: twin}
}

// Claim leases up to max pending shards of a distributed job to one
// remote worker. Every claim first sweeps lapsed leases back to the
// pool, so a crashed worker's shards are re-issued as soon as any live
// worker asks for work.
func (m *jobMgr) Claim(jobID, worker string, max int) (apiclient.Claim, error) {
	if max < 1 {
		max = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		return apiclient.Claim{}, err
	}
	if m.draining {
		// The drain window refuses new leases to remote workers (they
		// back off per Retry-After) but keeps accepting heartbeats and
		// uploads for leases already out. Loopback grants do not pass
		// through here: local jobs still finish.
		return apiclient.Claim{}, faultRetryf(http.StatusServiceUnavailable, apiclient.CodeUnavailable,
			drainRetryAfterSeconds, "server: draining for shutdown; no new leases")
	}
	resp := apiclient.Claim{
		Job:             j.id,
		SpecHash:        j.key,
		Spec:            j.spec,
		LeaseTTLSeconds: m.leaseTTL.Seconds(),
	}
	now := m.now()
	m.sweepExpiredLocked(j, now)
	if j.state == apiclient.JobRunning {
		var pending []int
		for i := j.nextPending(0); i >= 0 && len(pending) < max; i = j.nextPending(i + 1) {
			pending = append(pending, i)
		}
		for _, i := range pending {
			resp.Shards = append(resp.Shards, m.grantLocked(j, i, worker, now, len(pending), false))
		}
		// Straggler speculation: with the pending pool drained, re-expose
		// leased shards whose holders have straggled past the threshold.
		for i := 0; i < len(j.shards) && len(resp.Shards) < max; i++ {
			l := &j.leases[i]
			if j.shards[i].State == apiclient.ShardLeased && l.worker != worker && l.specToken == "" &&
				m.speculationDueLocked(j, i, now) {
				resp.Shards = append(resp.Shards, m.grantLocked(j, i, worker, now, 0, true))
			}
		}
		// One sync for the batch's grant records, before the tokens
		// leave the building.
		if len(resp.Shards) > 0 {
			if err := m.walSync(j); err != nil {
				m.logger.Error("journal lease grants", "job", j.id, "error", err)
			}
		}
	}
	resp.State = j.state
	resp.ShardsTotal = len(j.shards)
	resp.ShardsDone = j.shardsDone
	return resp, nil
}

// Heartbeat extends exactly one unexpired lease by a full TTL. A
// heartbeat for a lapsed lease evicts it on the spot and reports
// lease_expired — the worker must re-claim, it cannot resurrect the
// old token.
func (m *jobMgr) Heartbeat(jobID string, idx int, token string) (apiclient.Heartbeat, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		return apiclient.Heartbeat{}, err
	}
	if idx < 0 || idx >= len(j.shards) {
		return apiclient.Heartbeat{}, faultf(http.StatusNotFound, apiclient.CodeShardNotFound,
			"job %s has no shard %d (plan has %d)", jobID, idx, len(j.shards))
	}
	sh := &j.shards[idx]
	l := &j.leases[idx]
	if sh.State != apiclient.ShardLeased || (l.token != token && (l.specToken == "" || l.specToken != token)) {
		return apiclient.Heartbeat{}, faultf(http.StatusConflict, apiclient.CodeLeaseExpired,
			"lease is not current for shard %d of job %s", idx, jobID)
	}
	// A speculative twin heartbeats its own deadline; the primary's
	// lease is untouched either way.
	expires, lapse := &l.expires, walExpire
	if token != l.token {
		expires, lapse = &l.specExpires, walSpecExpire
	}
	now := m.now()
	if ago := now.Sub(*expires); ago >= 0 {
		m.expireLocked(j, idx, lapse)
		return apiclient.Heartbeat{}, faultf(http.StatusConflict, apiclient.CodeLeaseExpired,
			"lease for shard %d of job %s expired %s ago", idx, jobID, ago)
	}
	*expires = now.Add(m.leaseTTL)
	return apiclient.Heartbeat{Job: j.id, Index: idx, ExpiresAt: *expires}, nil
}

// ShardResult accepts one shard's uploaded result. First writer wins;
// a duplicate of the winning upload is an idempotent success; a result
// computed for a different spec, a mismatched shard, or an evicted
// lease never reaches the merge. The accepted upload that completes
// the plan triggers the canonical merge and files the run. body is the
// gzip'd upload as received and res what the accept path read of it
// (acceptUpload): the journal keeps the former, the job res — with its
// own copy of body (a loopback result has no body, its job no journal).
func (m *jobMgr) ShardResult(jobID string, idx int, worker, token string, res *heldResult, body []byte) (apiclient.ResultAck, error) {
	m.mu.Lock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		m.mu.Unlock()
		return apiclient.ResultAck{}, err
	}
	resp, finalize, err := m.shardResultLocked(j, idx, worker, token, res, body)
	m.mu.Unlock()
	if err != nil {
		return apiclient.ResultAck{}, err
	}
	if finalize {
		// Synchronous: the upload that completes the plan pays for the
		// merge, so when its 200 arrives the artifacts are served.
		m.finalize(j)
		resp.State = apiclient.JobDone
		if v, ok := m.Get(jobID); ok {
			resp.State = v.State // failed merges surface too
		}
	}
	return resp, nil
}

// checkResult reports why a payload cannot be shard idx of job j —
// another wire version, another spec, another shard, not the trace
// count the plan gives that shard — or nil. The accept path and journal
// replay share it; idx is within the plan.
func checkResult(j *job, idx int, h *resultHead) *apiFault {
	sh := &j.shards[idx]
	if h.version != campaign.ShardWireVersion {
		return faultf(http.StatusBadRequest, apiclient.CodeResultInvalid,
			"shard result has wire version %d (this server speaks %d)",
			h.version, campaign.ShardWireVersion)
	}
	if h.specHash != j.key {
		return faultf(http.StatusConflict, apiclient.CodeStaleResult,
			"result computed for spec %.12s, job %s wants %.12s", h.specHash, j.id, j.key)
	}
	if h.shard != sh.Shard || h.slice != sh.Slice {
		return faultf(http.StatusBadRequest, apiclient.CodeResultInvalid,
			"payload is for shard (%d,%d) but was posted to (%d,%d)",
			h.shard, h.slice, sh.Shard, sh.Slice)
	}
	// A short result would merge into a dataset that silently lacks
	// traces: it is refused before it is journaled or acknowledged.
	if h.traces != sh.Traces || h.Stats.Traces != sh.Traces {
		return faultf(http.StatusBadRequest, apiclient.CodeResultInvalid,
			"payload carries %d traces (its stats say %d) but shard (%d,%d) is planned as %d",
			h.traces, h.Stats.Traces, sh.Shard, sh.Slice, sh.Traces)
	}
	return nil
}

func (m *jobMgr) shardResultLocked(j *job, idx int, worker, token string, res *heldResult, body []byte) (apiclient.ResultAck, bool, error) {
	if idx < 0 || idx >= len(j.shards) {
		return apiclient.ResultAck{}, false, faultf(http.StatusNotFound, apiclient.CodeShardNotFound,
			"job %s has no shard %d (plan has %d)", j.id, idx, len(j.shards))
	}
	sh := &j.shards[idx]
	l := &j.leases[idx]
	if f := checkResult(j, idx, &res.resultHead); f != nil {
		if f.code == apiclient.CodeStaleResult {
			m.met.resultsStale.Inc()
		}
		return apiclient.ResultAck{}, false, f
	}
	resp := apiclient.ResultAck{Job: j.id, Index: idx, ShardsTotal: len(j.shards)}
	if sh.State == apiclient.ShardDone {
		// Idempotent duplicates: the winning token, and either side of a
		// settled speculation race (the tokens are left in place when the
		// shard completes exactly so the loser's in-flight upload acks
		// "duplicate" — its bytes were identical, its work wasted but
		// harmless).
		if token != "" && (token == l.doneToken || token == l.token || token == l.specToken) {
			m.met.resultsDuplicate.Inc()
			resp.Status = apiclient.ResultDuplicate
			resp.ShardsDone = j.shardsDone
			resp.State = j.state
			return resp, false, nil
		}
		m.met.resultsStale.Inc()
		return apiclient.ResultAck{}, false, faultf(http.StatusConflict, apiclient.CodeStaleResult,
			"shard %d of job %s already has a result from %s", idx, j.id, sh.Worker)
	}
	speculative := l.specToken != "" && token == l.specToken && token != l.token
	if sh.State != apiclient.ShardLeased || (l.token != token && !speculative) {
		// Pending (evicted) or leased to a successor: the uploader lost
		// its lease and someone else owns — or will own — the shard.
		m.met.resultsStale.Inc()
		return apiclient.ResultAck{}, false, faultf(http.StatusConflict, apiclient.CodeStaleResult,
			"lease is not current for shard %d of job %s", idx, j.id)
	}
	// Accept. Note no expiry check: a lapsed lease that was never
	// evicted is still the shard's current lease, and determinism
	// makes the slow worker's bytes as good as anyone's.
	//
	// WAL discipline: the accept is durable before it is visible. The
	// upload's own bytes are journaled and fsync'd here, before any
	// in-memory state changes and before the 200 — so a crash at any
	// later instant leaves a coordinator that still owns this result.
	// A journal failure refuses the upload (500, internal); the worker
	// retries and the re-journaled duplicate replays first-wins.
	rec := walRecord{Type: walResult, Idx: idx, Worker: worker, Token: token, Body: body, Enc: encGzip, Time: m.now()}
	err := m.walAppend(j, rec)
	if err == nil {
		err = m.walSync(j)
	}
	if err != nil {
		return apiclient.ResultAck{}, false, faultf(http.StatusInternalServerError, apiclient.CodeInternal,
			"server: journal shard result: %v", err)
	}
	if err := failpoint.Check(failpoint.AcceptResultAfterJournal); err != nil {
		// Hook-simulated crash: the result is journaled but the worker
		// gets an error instead of its ack — the crash-between-journal-
		// and-ack window. Its retry appends a duplicate journal record,
		// which replay deduplicates.
		return apiclient.ResultAck{}, false, faultf(http.StatusInternalServerError, apiclient.CodeInternal,
			"failpoint %s: %v", failpoint.AcceptResultAfterJournal, err)
	}
	if res.wire == nil {
		// An upload is kept as the bytes just journaled; they are the
		// request's buffer until the handler returns.
		res.body = append(make([]byte, 0, len(body)), body...)
	}
	j.apply(rec, res)
	// Settle the speculation race, if one was open: the winning side's
	// counter ticks.
	if l.specToken != "" {
		if speculative {
			m.met.specWon.Inc()
			m.logger.Info("speculation won", "job", j.id, "shard", idx,
				"winner", worker, "straggler", l.worker)
		} else {
			m.met.specWasted.Inc()
		}
	}
	if j.distributed() && m.openShards > 0 {
		m.openShards--
	}
	m.met.resultsAccepted.Inc()
	m.met.workerShardSeconds(worker).Observe(res.Stats.Elapsed.Seconds())
	resp.Status = apiclient.ResultAccepted
	resp.ShardsDone = j.shardsDone
	resp.State = j.state
	finalize := j.shardsDone == len(j.shards) && !j.finalizing
	if finalize {
		j.finalizing = true
	}
	return resp, finalize, nil
}

// finalize merges a completed job's shard results in canonical order
// and files the run — the one completion tail, whoever executed the
// shards, so the stored artifacts are indistinguishable: the run report
// from the shards' headers through campaign.MergeHeaders, the dataset
// streamed from the held results (writeDataset).
func (m *jobMgr) finalize(j *job) {
	if err := failpoint.Check(failpoint.FinalizeBeforeStore); err != nil {
		// Hook-simulated crash between the last accepted shard and the
		// store write: leave the job exactly as a dead process would —
		// finalizing latched, journal complete on disk, store entry
		// absent. Only restart recovery on this data dir finishes it.
		m.logger.Error("failpoint abort before finalize", "job", j.id, "error", err)
		return
	}
	headers := make([]campaign.ShardHeader, len(j.results))
	for i := range j.results {
		headers[i] = j.results[i].ShardHeader
	}
	res := campaign.MergeHeaders(headers)
	wall := m.now().Sub(j.started)
	n, err := m.fileRun(j, res, wall)
	if err != nil {
		m.failJob(j, err)
		return
	}
	m.mu.Lock()
	j.state = apiclient.JobDone
	j.finished = m.now()
	j.results = nil // shard data is merged and filed; release it,
	j.local = nil   // and a local job's worlds with it
	delete(m.active, j.key)
	if j.wal != nil {
		// The crash-atomic store entry is now the durable record; the
		// journal has nothing left to protect.
		j.wal.close()
		j.wal = nil
		if err := m.wal.remove(j.id); err != nil {
			m.logger.Error("journal remove", "job", j.id, "error", err)
		}
	}
	j.log(m.now(), apiclient.EventDone, nil, "")
	m.mu.Unlock()
	m.met.jobsDone.Inc()
	m.met.jobsRunning.Add(-1)
	m.logger.Info("job done", "job", j.id, "key", j.key[:12],
		"execution", j.spec.Execution, "dataset_bytes", n, "wall_seconds", wall.Seconds())
}
