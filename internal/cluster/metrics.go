package cluster

import "sync/atomic"

// clusterMetrics are the coordinator's own counters, the live values
// behind the Snapshot fields of the same meaning; per-node counters live
// on the nodes themselves.
type clusterMetrics struct {
	routed, retried, failedOver, streamErrors, unroutable, announces atomic.Int64
	jobsRouted, attestUpdates, attestFailures                        atomic.Int64
}

// NodeStatus is one node's row in the cluster snapshot.
type NodeStatus struct {
	Name    string `json:"name" prom:"label"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy" prom:"gauge"`
	// Draining distinguishes an operator drain from probe-detected
	// failure.
	Draining bool `json:"draining" prom:"gauge"`
	// QueueUnits is the node's accepted-but-unproved work (matmul
	// statements plus model ops) as of its last probe.
	QueueUnits int64 `json:"queue_units" prom:"gauge"`
	// Workers is the parallel budget the node announced; 0 for a node
	// that never announced (a static -node).
	Workers int `json:"workers,omitempty" prom:"gauge"`
	// Routed counts exchanges this node answered; FailedOver counts
	// jobs that had to move off it (plus mid-stream deaths charged to it).
	Routed     int64 `json:"routed" prom:"counter"`
	FailedOver int64 `json:"failed_over" prom:"counter,name=failovers"`
	// ProbeFailures is the current consecutive-failure streak.
	ProbeFailures int64 `json:"probe_failures" prom:"gauge"`
	// DiskBytes is the node's on-disk state (job journals plus issued
	// log) and MemBytes its live heap, as of its last probe.
	DiskBytes uint64 `json:"disk_bytes" prom:"gauge"`
	MemBytes  uint64 `json:"mem_bytes" prom:"gauge"`
}

// Snapshot is the coordinator's metrics, declared once as for a node
// (server.Snapshot): GET /metrics encodes it as JSON and GET
// /metrics/prometheus through its prom tags, with each node's row as
// zkvc_node_* series labelled node=<name>.
type Snapshot struct {
	Nodes []NodeStatus `json:"nodes" prom:"label=node"`
	// Routed counts client exchanges answered through the cluster;
	// Retried counts forwarding attempts beyond a job's first node;
	// FailedOver counts attempts abandoned on one node (dead or
	// shedding) and moved to the next in hash order.
	Routed     int64 `json:"cluster_routed" prom:"counter"`
	Retried    int64 `json:"cluster_retried" prom:"counter"`
	FailedOver int64 `json:"cluster_failovers" prom:"counter"`
	// StreamErrors counts model streams ended by an in-stream error
	// frame after their node died with frames already forwarded.
	StreamErrors int64 `json:"cluster_stream_errors" prom:"counter"`
	// Unroutable counts requests refused because no healthy node (or no
	// surviving candidate) could take them.
	Unroutable int64 `json:"cluster_unroutable" prom:"counter"`
	Announces  int64 `json:"cluster_announces" prom:"counter"`
	// JobsRouted counts async job submissions accepted through the
	// cluster (each also counts in Routed); JobRoutes is the live size of
	// the jobID→node table.
	JobsRouted int64 `json:"cluster_jobs_routed" prom:"counter"`
	JobRoutes  int   `json:"cluster_job_routes" prom:"gauge"`
	// AttestUpdates counts attestation updates fanned out to replica
	// sets; AttestFailures counts per-replica pushes that failed (the
	// replica misses that update — best-effort by design).
	AttestUpdates  int64 `json:"cluster_attest_updates" prom:"counter"`
	AttestFailures int64 `json:"cluster_attest_failures" prom:"counter"`
}

// Metrics returns a point-in-time snapshot of the cluster state.
func (c *Coordinator) Metrics() Snapshot {
	nodes := c.snapshotNodes()
	s := Snapshot{
		Nodes:          make([]NodeStatus, len(nodes)),
		Routed:         c.metrics.routed.Load(),
		Retried:        c.metrics.retried.Load(),
		FailedOver:     c.metrics.failedOver.Load(),
		StreamErrors:   c.metrics.streamErrors.Load(),
		Unroutable:     c.metrics.unroutable.Load(),
		Announces:      c.metrics.announces.Load(),
		JobsRouted:     c.metrics.jobsRouted.Load(),
		JobRoutes:      c.jobRoutes.len(),
		AttestUpdates:  c.metrics.attestUpdates.Load(),
		AttestFailures: c.metrics.attestFailures.Load(),
	}
	for i, n := range nodes {
		s.Nodes[i] = NodeStatus{
			Name:          n.name,
			URL:           n.url,
			Healthy:       n.healthy(),
			Draining:      n.drained.Load(),
			QueueUnits:    n.queueUnits.Load(),
			Workers:       int(n.workers.Load()),
			Routed:        n.routed.Load(),
			FailedOver:    n.failedOver.Load(),
			ProbeFailures: n.fails.Load(),
			DiskBytes:     n.diskBytes.Load(),
			MemBytes:      n.memBytes.Load(),
		}
	}
	return s
}
