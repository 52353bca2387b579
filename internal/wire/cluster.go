package wire

// Cluster control-plane messages: a prover node announcing itself to a
// coordinator and the periodic heartbeat that keeps its entry fresh.
// They cross the same unauthenticated HTTP surface as proving requests,
// so the full strict-decode discipline applies — bounded lengths, no
// trailing bytes, canonical re-encode — and the coordinator additionally
// validates the announced URL before routing anything to it (a URL is a
// routing instruction, not just data).

// NodeAnnounce registers a prover node with a cluster coordinator. Name
// is the node's stable identity — the rendezvous-hash input, so a node
// that restarts under the same name keeps the same slice of the keyspace
// (and its warm CRS cache stays relevant). URL is where the coordinator
// forwards work. Workers is a capacity hint (the node's parallel
// budget); the coordinator records it for operators, routing itself is
// affinity-driven.
type NodeAnnounce struct {
	Name    string
	URL     string
	Workers int
}

// NodeHeartbeat refreshes a registered node's liveness and reports its
// load. QueueUnits mirrors the node's own capacity ledger (matmul jobs
// plus model ops accepted but not yet proved). Draining asks the
// coordinator to stop routing new work while in-flight jobs finish —
// the graceful half of a shutdown. DiskBytes is the node's on-disk state
// (job journals plus the durable issued log) and MemBytes its live heap —
// the capacity signals an autoscaler or an operator watches, carried in
// the heartbeat so the coordinator has them even between probes.
type NodeHeartbeat struct {
	Name       string
	QueueUnits int64
	Draining   bool
	DiskBytes  uint64
	MemBytes   uint64
}

// EncodeNodeAnnounce serializes a node registration.
func EncodeNodeAnnounce(a *NodeAnnounce) []byte {
	e := newEnc(TagNodeAnnounce)
	e.str(a.Name)
	e.str(a.URL)
	e.u32(uint32(a.Workers))
	return e.buf
}

// DecodeNodeAnnounce parses a node registration. Name and URL must be
// non-empty (an anonymous or unroutable node cannot be registered);
// whether the URL actually parses is the coordinator's call.
func DecodeNodeAnnounce(b []byte) (*NodeAnnounce, error) {
	return decode(b, TagNodeAnnounce, func(d *dec) *NodeAnnounce {
		a := &NodeAnnounce{}
		a.Name = d.strNonEmpty("node name")
		a.URL = d.strNonEmpty("node URL")
		a.Workers = d.u32max("node workers", maxDim)
		return a
	})
}

// EncodeNodeHeartbeat serializes a node heartbeat.
func EncodeNodeHeartbeat(h *NodeHeartbeat) []byte {
	e := newEnc(TagNodeHeartbeat)
	e.str(h.Name)
	e.u64(uint64(h.QueueUnits))
	e.flag(h.Draining)
	e.u64(h.DiskBytes)
	e.u64(h.MemBytes)
	return e.buf
}

// DecodeNodeHeartbeat parses a node heartbeat.
func DecodeNodeHeartbeat(b []byte) (*NodeHeartbeat, error) {
	return decode(b, TagNodeHeartbeat, func(d *dec) *NodeHeartbeat {
		h := &NodeHeartbeat{}
		h.Name = d.strNonEmpty("node name")
		h.QueueUnits = d.u64max("queue units", maxStatInt)
		h.Draining = d.flag("draining flag")
		h.DiskBytes = uint64(d.u64max("disk bytes", maxStatInt))
		h.MemBytes = uint64(d.u64max("mem bytes", maxStatInt))
		return h
	})
}
