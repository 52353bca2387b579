package cluster

// Attestation replication fan-out. Nodes push their issued-log updates
// to POST /v1/cluster/attest; the coordinator relays each digest to its
// replica set — the first ReplicaCount healthy nodes by rendezvous rank
// on the digest itself, excluding the issuer. Ranking on the digest
// (not the affinity key) spreads one node's attestations across the
// whole pool, so losing any single peer loses at most 1/n of another
// node's replicated vouchers. The same ranking, recomputed at verify
// time, is how a failed-over verification finds a replica that holds
// the attestation.

import (
	"crypto/sha256"
	"net/http"

	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// replicaTargets is a digest's replica set: the first ReplicaCount
// healthy nodes in rendezvous order on the digest, excluding the
// issuing node (its own durable log already holds the attestation).
func (c *Coordinator) replicaTargets(digest [sha256.Size]byte, exclude string) []*node {
	var out []*node
	for _, n := range c.rank(digest[:]) {
		if n.name == exclude || !n.healthy() {
			continue
		}
		out = append(out, n)
		if len(out) == c.cfg.ReplicaCount {
			break
		}
	}
	return out
}

// verifyCandidates orders the nodes a verification should try: the
// presumed issuer first (the affinity winner — the node prove-time
// routing picked, whose log holds the CRS-tagged attestation), then the
// digest's replicas (each holds the untagged replicated attestation and
// re-checks the proof cryptographically), then every other healthy node
// in affinity order. Only healthy nodes appear; a dead issuer simply
// drops out and the first replica becomes the first attempt — that is
// the failover.
func (c *Coordinator) verifyCandidates(key []byte, digest [sha256.Size]byte) []*node {
	all := c.rank(key)
	var issuerName string
	if len(all) > 0 {
		issuerName = all[0].name
	}
	seen := make(map[string]bool)
	var out []*node
	add := func(n *node) {
		if !n.healthy() || seen[n.name] {
			return
		}
		seen[n.name] = true
		out = append(out, n)
	}
	if len(all) > 0 {
		add(all[0])
	}
	for _, n := range c.replicaTargets(digest, issuerName) {
		add(n)
	}
	for _, n := range all {
		add(n)
	}
	return out
}

// handleAttest ingests one node's attestation update and relays every
// digest to its replica set, grouped so each target receives one POST.
// Relaying is synchronous but bounded (the probe client's timeout) and
// best-effort: a replica that cannot be reached right now simply misses
// this update, and the issuer's durable log remains the ground truth.
func (c *Coordinator) handleAttest(w http.ResponseWriter, r *http.Request, in server.Input) {
	u := in.Msg.(*wire.AttestationUpdate)
	c.metrics.attestUpdates.Add(1)
	perNode := make(map[*node]*wire.AttestationUpdate)
	group := func(d [sha256.Size]byte, removed bool) {
		for _, n := range c.replicaTargets(d, u.Node) {
			out := perNode[n]
			if out == nil {
				out = &wire.AttestationUpdate{Node: u.Node}
				perNode[n] = out
			}
			if removed {
				out.Removed = append(out.Removed, d)
			} else {
				out.Added = append(out.Added, d)
			}
		}
	}
	for _, d := range u.Added {
		group(d, false)
	}
	for _, d := range u.Removed {
		group(d, true)
	}
	for n, out := range perNode {
		if err := n.probe.Attest(r.Context(), out); err != nil {
			c.metrics.attestFailures.Add(1)
		}
	}
	w.WriteHeader(http.StatusOK)
}
