// Package workertest plays misbehaving workers against a coordinator:
// the one that claims a batch, lands part of it and vanishes, and the
// one that claims a batch and heartbeats it forever without progress.
// Those are client behaviour, not worker modes — package worker has no
// knob that misbehaves — so tests act them out here, over the same
// apiclient calls a worker makes. Like net/http/httptest it is imported
// only from _test.go files.
package workertest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
)

// Batch is one claimed batch held by a worker the test plays by hand.
// Uploads land in claim order; Hold heartbeats whatever is left.
type Batch struct {
	apiclient.Claim
	client   *apiclient.Client
	worker   string
	uploaded int
}

// Claim leases up to n shards of job as worker.
func Claim(ctx context.Context, c *apiclient.Client, job, worker string, n int) (*Batch, error) {
	claim, err := c.Claim(ctx, job, worker, n)
	if err != nil {
		return nil, err
	}
	return &Batch{Claim: claim, client: c, worker: worker}, nil
}

// Upload executes the batch's next n shards with the local engine and
// uploads each under its lease, returning the acks. A worker that calls
// Upload for part of its batch and then drops the Batch has crashed:
// the rest of its leases lapse on the coordinator's clock.
func (b *Batch) Upload(ctx context.Context, n int) ([]apiclient.ResultAck, error) {
	if b.uploaded+n > len(b.Shards) {
		return nil, fmt.Errorf("workertest: upload %d of a %d-shard batch (%d done)", n, len(b.Shards), b.uploaded)
	}
	cfg, err := b.Spec.Config()
	if err != nil {
		return nil, err
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		return nil, err
	}
	acks := make([]apiclient.ResultAck, 0, n)
	for _, sh := range b.Shards[b.uploaded : b.uploaded+n] {
		wire, err := campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice)
		if err != nil {
			return acks, err
		}
		wire.SpecHash = b.SpecHash
		ack, err := b.client.PushShardResult(ctx, b.Job, sh.Index, b.worker, sh.Lease, wire)
		if err != nil {
			return acks, err
		}
		acks = append(acks, ack)
		b.uploaded++
	}
	return acks, nil
}

// Hold heartbeats every lease the batch has not uploaded, a third of
// the TTL apart, and never executes: a wedged worker, alive and making
// no progress — what straggler speculation races. It returns once
// every held lease has been refused (the shard was finished by a
// speculating twin) or ctx ends.
func (b *Batch) Hold(ctx context.Context) error {
	live := b.Shards[b.uploaded:]
	t := time.NewTicker(time.Duration(b.LeaseTTLSeconds * float64(time.Second) / 3))
	defer t.Stop()
	for len(live) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		kept := live[:0:0]
		for _, sh := range live {
			_, err := b.client.Heartbeat(ctx, b.Job, sh.Index, b.worker, sh.Lease)
			if err == nil || apiclient.IsTransient(err) {
				kept = append(kept, sh)
			}
		}
		live = kept
	}
	return nil
}
