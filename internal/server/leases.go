package server

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/failpoint"
	"repro/internal/packet"
	"repro/internal/telemetry"
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
// (metrics, strikes, logs, the event ring); replay (recovery.go) applies
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

// defaultSpeculateAfter is the straggler threshold as a multiple of
// the job's observed typical (EWMA) shard duration, scaled by the
// straggler's claim batch size (a worker executes its batch serially,
// so a batch of k legitimately needs ~k typical durations before its
// last shard even starts). A leased shard is never speculated before
// the slowest successful shard's duration has passed.
const defaultSpeculateAfter = 3.0

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

// ShardClaim is one leased shard in a claim response.
type ShardClaim struct {
	// Index is the shard's position in the job's canonical plan — the
	// {shard} the heartbeat and result routes address.
	Index int `json:"index"`
	campaign.ShardInfo
	// Lease is the opaque token the worker must present on heartbeat
	// and upload; ExpiresAt is its deadline on the coordinator's clock.
	Lease     string    `json:"lease"`
	ExpiresAt time.Time `json:"expires_at"`
	// Speculative marks a straggler re-issue: another worker still
	// holds a live lease on this shard, and the first upload wins.
	Speculative bool `json:"speculative,omitempty"`
}

// ClaimResponse is POST /v1/jobs/{id}/shards/claim's body. It carries
// everything a worker needs to execute without further reads: the
// job's canonical spec (compile the blueprint locally), its cache key
// (stamp uploads for the spec-hash guard), and the leased batch. An
// empty batch with state "running" means every remaining shard is
// leased elsewhere — back off and re-claim; state "done"/"failed"
// means drain.
type ClaimResponse struct {
	Job             string        `json:"job"`
	State           JobState      `json:"state"`
	SpecHash        string        `json:"spec_hash"`
	Spec            campaign.Spec `json:"spec"`
	LeaseTTLSeconds float64       `json:"lease_ttl_seconds"`
	ShardsTotal     int           `json:"shards_total"`
	ShardsDone      int           `json:"shards_done"`
	Shards          []ShardClaim  `json:"shards"`
}

// HeartbeatResponse acknowledges a lease extension.
type HeartbeatResponse struct {
	Job       string    `json:"job"`
	Index     int       `json:"index"`
	ExpiresAt time.Time `json:"expires_at"`
}

// ResultResponse acknowledges a shard upload. Status is "accepted" for
// the winning upload and "duplicate" for an idempotent re-send.
type ResultResponse struct {
	Job         string   `json:"job"`
	Index       int      `json:"index"`
	Status      string   `json:"status"`
	ShardsDone  int      `json:"shards_done"`
	ShardsTotal int      `json:"shards_total"`
	State       JobState `json:"state"`
}

// distributedJobLocked resolves a worker-protocol job reference;
// callers hold m.mu.
func (m *jobMgr) distributedJobLocked(jobID string) (*job, error) {
	j, ok := m.jobs[jobID]
	if !ok {
		return nil, faultf(http.StatusNotFound, codeJobNotFound, "no such job %q", jobID)
	}
	if !j.distributed() {
		return nil, faultf(http.StatusConflict, codeJobNotDistributed,
			"job %s executes on the coordinator's loopback workers; its shards cannot be claimed", jobID)
	}
	return j, nil
}

// internWorkerLocked returns a heap-stable pointer to the worker's
// name for allocation-free event-ring appends; callers hold m.mu.
func (m *jobMgr) internWorkerLocked(worker string) *string {
	if p, ok := m.workerNames[worker]; ok {
		return p
	}
	p := &worker
	m.workerNames[worker] = p
	return p
}

// nextPending returns the first pending shard at or after from, or -1.
func (j *job) nextPending(from int) int {
	for i := from; i < len(j.shards); i++ {
		if j.shards[i].State == "pending" {
			return i
		}
	}
	return -1
}

// apply makes the transition a lease or result record describes; res
// is what a result record's shard keeps for the merge. It checks
// nothing — whether the transition is due is the caller's business.
func (j *job) apply(rec walRecord, res *heldResult) {
	sh, l := &j.shards[rec.Idx], &j.leases[rec.Idx]
	if rec.Seq > l.seq {
		l.seq = rec.Seq
	}
	switch {
	case rec.Type == walResult:
		// The lease tokens stay: the loser of a speculation race must
		// still ack "duplicate".
		servers := j.internServers(res.Servers)
		j.results[rec.Idx] = *res
		j.results[rec.Idx].Servers = servers
		l.doneToken = rec.Token
		sh.State, sh.Worker = "done", rec.Worker
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
		sh.State, sh.Worker = "leased", rec.Worker
		l.token, l.worker, l.expires = rec.Token, rec.Worker, rec.Expires
		l.granted, l.batchN = rec.Time, rec.BatchN
	case rec.Event == walSpecGrant:
		l.specToken, l.specWorker, l.specExpires = rec.Token, rec.Worker, rec.Expires
	case rec.Event == walExpire && l.specToken == "":
		sh.State, sh.Worker = "pending", ""
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
		if j.shards[i].State != "leased" {
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
// speculative twin (walSpecExpire): counted, journaled, and held against
// the lapsed worker. The record is not fsync'd: an eviction promises
// nothing to anyone, and a lost one merely means recovery sees a leased
// shard with a lapsed deadline, which the first claim sweep evicts again.
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
	if event == walExpire {
		m.met.events.Append(telemetry.EventLeaseExpired, &j.id,
			m.internWorkerLocked(lapsed), int32(sh.Shard), int32(sh.Slice))
	}
	m.logger.Info("lease expired", "job", j.id, "shard", i, "event", event,
		"worker", lapsed, "state", sh.State, "holder", sh.Worker)
	m.strikeLocked(lapsed, "lease-expiry")
}

// speculationDueLocked reports whether a leased shard has straggled
// past the point where re-exposing it is cheaper than waiting: elapsed
// time since its grant exceeds speculate-after × EWMA × batch size,
// and also the slowest successful shard so far. Requires at least one
// completed shard — there is no "typical duration" before that — and a
// distributed job: a loopback grant is never twinned.
func (m *jobMgr) speculationDueLocked(j *job, i int, now time.Time) bool {
	if m.speculateAfter <= 0 || j.durCount == 0 || j.durEWMA <= 0 || !j.distributed() {
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
	threshold := m.speculateAfter * j.durEWMA * float64(batch)
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
func (m *jobMgr) grantLocked(j *job, i int, worker string, now time.Time, batch int, twin bool) ShardClaim {
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
	m.met.events.Append(telemetry.EventShardLeased, &j.id, m.internWorkerLocked(worker),
		int32(sh.Shard), int32(sh.Slice))
	return ShardClaim{Index: i, ShardInfo: sh.ShardInfo, Lease: rec.Token, ExpiresAt: rec.Expires, Speculative: twin}
}

// Claim leases up to max pending shards of a distributed job to one
// remote worker. Every claim first sweeps lapsed leases back to the
// pool, so a crashed worker's shards are re-issued as soon as any live
// worker asks for work.
func (m *jobMgr) Claim(jobID, worker string, max int) (ClaimResponse, error) {
	if max < 1 {
		max = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		return ClaimResponse{}, err
	}
	if m.draining {
		// The drain window refuses new leases to remote workers (they
		// back off per Retry-After) but keeps accepting heartbeats and
		// uploads for leases already out. Loopback grants do not pass
		// through here: local jobs still finish.
		return ClaimResponse{}, faultRetryf(http.StatusServiceUnavailable, codeUnavailable,
			drainRetryAfterSeconds, "server: draining for shutdown; no new leases")
	}
	resp := ClaimResponse{
		Job:             j.id,
		SpecHash:        j.key,
		Spec:            j.spec,
		LeaseTTLSeconds: m.leaseTTL.Seconds(),
	}
	now := m.now()
	m.sweepExpiredLocked(j, now)
	// Health gate AFTER the sweep: strikes the sweep just charged this
	// worker count against this very claim.
	if err := m.admitClaimLocked(worker); err != nil {
		return ClaimResponse{}, err
	}
	if j.state == JobRunning {
		// Adaptive batch sizing: a worker executes its batch serially
		// while only the executing shard's lease is heartbeat-extended,
		// so the batch must fit comfortably inside one TTL — slow shards
		// mean smaller batches, not mid-work expiries.
		if j.durCount > 0 && j.durEWMA > 0 {
			limit := int(m.leaseTTL.Seconds() / (2 * j.durEWMA))
			if limit < 1 {
				limit = 1
			}
			if limit < max {
				max = limit
				m.met.claimsCapped.Inc()
			}
		}
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
			if j.shards[i].State == "leased" && l.worker != worker && l.specToken == "" &&
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
func (m *jobMgr) Heartbeat(jobID string, idx int, token string) (HeartbeatResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	if idx < 0 || idx >= len(j.shards) {
		return HeartbeatResponse{}, faultf(http.StatusNotFound, codeShardNotFound,
			"job %s has no shard %d (plan has %d)", jobID, idx, len(j.shards))
	}
	sh := &j.shards[idx]
	l := &j.leases[idx]
	if sh.State != "leased" || (l.token != token && (l.specToken == "" || l.specToken != token)) {
		return HeartbeatResponse{}, faultf(http.StatusConflict, codeLeaseExpired,
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
		return HeartbeatResponse{}, faultf(http.StatusConflict, codeLeaseExpired,
			"lease for shard %d of job %s expired %s ago", idx, jobID, ago)
	}
	*expires = now.Add(m.leaseTTL)
	return HeartbeatResponse{Job: j.id, Index: idx, ExpiresAt: *expires}, nil
}

// ShardResult accepts one shard's uploaded result. First writer wins;
// a duplicate of the winning upload is an idempotent success; a result
// computed for a different spec, a mismatched shard, or an evicted
// lease never reaches the merge. The accepted upload that completes
// the plan triggers the canonical merge and files the run. body is the
// upload as received (enc its Content-Encoding) and res what the accept
// path read of it (acceptUpload): the journal keeps the former, the job
// res — with its own copy of body, if res was scanned from it (a
// loopback result has no body, its job no journal).
func (m *jobMgr) ShardResult(jobID string, idx int, worker, token string, res *heldResult, body []byte, enc string) (ResultResponse, error) {
	m.mu.Lock()
	j, err := m.distributedJobLocked(jobID)
	if err != nil {
		m.mu.Unlock()
		return ResultResponse{}, err
	}
	resp, finalize, err := m.shardResultLocked(j, idx, worker, token, res, body, enc)
	m.mu.Unlock()
	if err != nil {
		return ResultResponse{}, err
	}
	if finalize {
		// Synchronous: the upload that completes the plan pays for the
		// merge, so when its 200 arrives the artifacts are served.
		m.finalize(j)
		resp.State = JobDone
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
		return faultf(http.StatusBadRequest, codeResultInvalid,
			"shard result has wire version %d (this server speaks %d)",
			h.version, campaign.ShardWireVersion)
	}
	if h.specHash != j.key {
		return faultf(http.StatusConflict, codeStaleResult,
			"result computed for spec %.12s, job %s wants %.12s", h.specHash, j.id, j.key)
	}
	if h.shard != sh.Shard || h.slice != sh.Slice {
		return faultf(http.StatusBadRequest, codeResultInvalid,
			"payload is for shard (%d,%d) but was posted to (%d,%d)",
			h.shard, h.slice, sh.Shard, sh.Slice)
	}
	// A short result would merge into a dataset that silently lacks
	// traces: it is refused before it is journaled or acknowledged.
	if h.traces != sh.Traces || h.Stats.Traces != sh.Traces {
		return faultf(http.StatusBadRequest, codeResultInvalid,
			"payload carries %d traces (its stats say %d) but shard (%d,%d) is planned as %d",
			h.traces, h.Stats.Traces, sh.Shard, sh.Slice, sh.Traces)
	}
	return nil
}

func (m *jobMgr) shardResultLocked(j *job, idx int, worker, token string, res *heldResult, body []byte, enc string) (ResultResponse, bool, error) {
	if idx < 0 || idx >= len(j.shards) {
		return ResultResponse{}, false, faultf(http.StatusNotFound, codeShardNotFound,
			"job %s has no shard %d (plan has %d)", j.id, idx, len(j.shards))
	}
	sh := &j.shards[idx]
	l := &j.leases[idx]
	if f := checkResult(j, idx, &res.resultHead); f != nil {
		if f.code == codeStaleResult {
			m.met.resultsStale.Inc()
		}
		return ResultResponse{}, false, f
	}
	resp := ResultResponse{Job: j.id, Index: idx, ShardsTotal: len(j.shards)}
	if sh.State == "done" {
		// Idempotent duplicates: the winning token, and either side of a
		// settled speculation race (the tokens are left in place when the
		// shard completes exactly so the loser's in-flight upload acks
		// "duplicate" — its bytes were identical, its work wasted but
		// harmless).
		if token != "" && (token == l.doneToken || token == l.token || token == l.specToken) {
			m.met.resultsDuplicate.Inc()
			resp.Status = "duplicate"
			resp.ShardsDone = j.shardsDone
			resp.State = j.state
			return resp, false, nil
		}
		m.met.resultsStale.Inc()
		m.strikeLocked(worker, "stale-upload")
		return ResultResponse{}, false, faultf(http.StatusConflict, codeStaleResult,
			"shard %d of job %s already has a result from %s", idx, j.id, sh.Worker)
	}
	speculative := l.specToken != "" && token == l.specToken && token != l.token
	if sh.State != "leased" || (l.token != token && !speculative) {
		// Pending (evicted) or leased to a successor: the uploader lost
		// its lease and someone else owns — or will own — the shard.
		m.met.resultsStale.Inc()
		m.strikeLocked(worker, "stale-upload")
		return ResultResponse{}, false, faultf(http.StatusConflict, codeStaleResult,
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
	rec := walRecord{Type: walResult, Idx: idx, Worker: worker, Token: token, Body: body, Enc: enc, Time: m.now()}
	err := m.walAppend(j, rec)
	if err == nil {
		err = m.walSync(j)
	}
	if err != nil {
		return ResultResponse{}, false, faultf(http.StatusInternalServerError, codeInternal,
			"server: journal shard result: %v", err)
	}
	if err := failpoint.Check(failpoint.AcceptResultAfterJournal); err != nil {
		// Hook-simulated crash: the result is journaled but the worker
		// gets an error instead of its ack — the crash-between-journal-
		// and-ack window. Its retry appends a duplicate journal record,
		// which replay deduplicates.
		return ResultResponse{}, false, faultf(http.StatusInternalServerError, codeInternal,
			"failpoint %s: %v", failpoint.AcceptResultAfterJournal, err)
	}
	if res.wire == nil {
		// A scanned upload is kept as the bytes just journaled; they are
		// the request's buffer until the handler returns.
		res.body, res.enc = append(make([]byte, 0, len(body)), body...), enc
	}
	j.apply(rec, res)
	// Settle the speculation race, if one was open: the winning side's
	// counter ticks and the loser takes a speculation-loss strike — this
	// is the signal that catches a wedged-but-heartbeating worker, whose
	// leases never lapse but whose twins beat every upload.
	if l.specToken != "" {
		if speculative {
			m.met.specWon.Inc()
			m.strikeLocked(l.worker, "speculation-loss")
			m.logger.Info("speculation won", "job", j.id, "shard", idx,
				"winner", worker, "straggler", l.worker)
		} else {
			m.met.specWasted.Inc()
			m.strikeLocked(l.specWorker, "speculation-loss")
		}
	}
	m.creditLocked(worker)
	if j.distributed() && m.openShards > 0 {
		m.openShards--
	}
	m.met.resultsAccepted.Inc()
	m.met.workerShardSeconds(worker).Observe(res.Stats.Elapsed.Seconds())
	m.met.events.Append(telemetry.EventShardDone, &j.id,
		m.internWorkerLocked(worker), int32(sh.Shard), int32(sh.Slice))
	resp.Status = "accepted"
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
	j.state = JobDone
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
	m.mu.Unlock()
	m.met.jobsDone.Inc()
	m.met.jobsRunning.Add(-1)
	m.met.events.Append(telemetry.EventJobDone, &j.id, nil, -1, -1)
	m.logger.Info("job done", "job", j.id, "key", j.key[:12],
		"execution", j.spec.Execution, "dataset_bytes", n, "wall_seconds", wall.Seconds())
}
