package cluster

// The coordinator-backed Engine: the third deployment shape of
// zkvc.Engine. It is a server.Client pointed at a coordinator — the
// coordinator exposes a node's exact proving surface and routes each
// call by CRS affinity — wrapped in its own named type so the three
// shapes read as three constructors:
//
//	eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions()) // in-process
//	eng := server.NewClient("http://prover:8799")             // one service
//	eng := cluster.NewEngine("http://coordinator:8799")       // sharded pool

import (
	"zkvc"
	"zkvc/internal/server"
)

// Engine is the cluster-backed zkvc.Engine: every call routes through a
// coordinator to the prover node that owns the statement's affinity key,
// with failover for unstarted work. It embeds the typed client, so the
// service-shape extras (ProveCoalesced, Metrics, Tenant) are available
// too.
type Engine struct {
	*server.Client
}

// NewEngine returns an Engine speaking to the coordinator at
// coordinatorURL. Set Tenant on the embedded client to key affinity and
// coalescing, exactly as against a single node.
func NewEngine(coordinatorURL string) *Engine {
	return &Engine{Client: server.NewClient(coordinatorURL)}
}

var _ zkvc.Engine = (*Engine)(nil)
