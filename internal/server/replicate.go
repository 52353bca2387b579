package server

// Attestation replication: the issuing node pushes every new (or
// withdrawn) attestation digest to its coordinator, which fans the
// update out to the digest's replica set; receiving nodes ingest the
// digests into a separate in-memory set the verify handlers fall back
// to. The push is asynchronous and best-effort — a prove response never
// waits on the cluster — and the durable local log remains the source
// of truth: replication buys verify failover while the issuer is down,
// the log buys survival across the issuer's own restarts.

import (
	"context"
	"crypto/sha256"
	"net/http"
	"time"

	"zkvc/internal/wire"
)

// attestPushTimeout bounds one replication POST; past it the update is
// dropped and counted, like any other replication failure.
const attestPushTimeout = 5 * time.Second

// attested reports whether this node can vouch for a digest: it issued
// the attestation itself, or a peer did and replicated it here.
func (s *Server) attested(d [sha256.Size]byte) bool {
	return s.issued.has(d) || s.replicated.has(d)
}

// replicate queues an attestation update for the replicator goroutine.
// No-op outside a cluster (no ReplicateTo/NodeName); a full buffer
// drops the update and counts it rather than blocking the prove path.
func (s *Server) replicate(added, removed [][sha256.Size]byte) {
	if s.cfg.ReplicateTo == "" || s.cfg.NodeName == "" || len(added)+len(removed) == 0 {
		return
	}
	u := &wire.AttestationUpdate{Node: s.cfg.NodeName, Added: added, Removed: removed}
	select {
	case s.attestCh <- u:
	default:
		s.metrics.countReplicationError(errAttestBufferFull)
	}
}

type attestBufferFullError struct{}

func (attestBufferFullError) Error() string { return "attestation buffer full, update dropped" }

var errAttestBufferFull = attestBufferFullError{}

// replicator drains attestCh to the coordinator until Close. One
// in-flight push at a time keeps updates ordered (an add and its later
// tombstone must not race each other to the replicas).
func (s *Server) replicator() {
	defer s.wg.Done()
	client := NewClient(s.cfg.ReplicateTo)
	for {
		select {
		case <-s.attestStop:
			return
		case u := <-s.attestCh:
			ctx, cancel := context.WithTimeout(context.Background(), attestPushTimeout)
			err := client.Attest(ctx, u)
			cancel()
			if err != nil {
				s.metrics.countReplicationError(err)
			}
		}
	}
}

// handleAttest ingests a peer's attestation update (relayed through the
// coordinator) into the replicated set.
func (s *Server) handleAttest(w http.ResponseWriter, _ *http.Request, in Input) {
	u := in.Msg.(*wire.AttestationUpdate)
	for _, d := range u.Added {
		s.replicated.add(d)
	}
	for _, d := range u.Removed {
		s.replicated.remove(d)
	}
	w.WriteHeader(http.StatusOK)
}
