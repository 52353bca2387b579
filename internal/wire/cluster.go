package wire

// Cluster control-plane message: a prover node announcing itself to a
// coordinator, re-sent every interval so a restarted coordinator learns
// the node again. A node's health and load are no message: the
// coordinator reads them from the node's GET /metrics. The announce
// crosses the same unauthenticated HTTP surface as proving requests, so
// the full strict-decode discipline applies — bounded lengths, no
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
