package cluster

// Affinity keys: the routing input of the rendezvous hash, chosen to
// coincide with what the nodes cache and coalesce by, so that routing
// equals cache locality. On a node's Groth16 key cache that locality
// pays for gadget circuits, which depend only on their shape, and for
// replayed inputs; a matmul circuit is bound to its operands by its
// Fiat–Shamir challenge and is set up anew for every new input.
//
// Matmul jobs key on (tenant, product shape, circuit options) — the
// node-side coalescer partitions by tenant, so everything that could
// share a batch shares a key, and a proof's verification finds the node
// that attested it. Model jobs key on (tenant, backend, the
// structural identity of every planned op). The real cache key on the
// node is the R1CS structure digest of each gadget circuit, but that
// digest requires synthesis — far too expensive for a router. The op
// structure (kind, layer, tag, dimensions) determines the synthesized
// circuit, so hashing it routes identical circuit structures to
// identical nodes without synthesizing anything; and crucially the same
// key is derivable both from a prove request (via the trace plan) and
// from the report it produced (via the per-op metadata), which is what
// lets /v1/verify/model find the node whose issued log holds the
// report's attestation.

import (
	"crypto/sha256"
	"fmt"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// matmulKey is the affinity key for one matmul statement. Tenant is
// %q-quoted so a crafted tenant string cannot collide with another
// tenant's key space.
func matmulKey(tenant string, rows, inner, cols int, opts zkvc.Options) []byte {
	return fmt.Appendf(nil, "matmul|%q|%dx%dx%d|crpc=%t|psq=%t",
		tenant, rows, inner, cols, opts.CRPC, opts.PSQ)
}

// opShape is the structural identity of one planned/proved operation —
// the fields shared by nn.Op (prove side) and zkml.OpProof (verify
// side) that determine the synthesized circuit.
type opShape struct {
	kind  nn.OpKind
	layer int
	tag   string
	dims  [3]int
}

// modelKey folds a model job's structure into its affinity key.
func modelKey(tenant string, backend zkml.Backend, model string, ops []opShape) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "model|%q|%d|%q|%d", tenant, backend, model, len(ops))
	for _, op := range ops {
		fmt.Fprintf(h, "|%d:%d:%q:%dx%dx%d", op.kind, op.layer, op.tag,
			op.dims[0], op.dims[1], op.dims[2])
	}
	key := []byte("model|")
	return h.Sum(key)
}

// modelKeyFromRequest derives the affinity key of a prove-model request
// from its trace plan — the ops the node will actually prove, in
// report order.
func modelKeyFromRequest(tenant string, req *wire.ProveModelRequest) ([]byte, error) {
	plan, err := zkml.PlanTrace(req.Trace, zkml.Options{ProveNonlinear: req.ProveNonlinear})
	if err != nil {
		return nil, err
	}
	ops := make([]opShape, len(plan))
	for i, op := range plan {
		ops[i] = opShape{kind: op.Kind, layer: op.Layer, tag: op.Tag}
		// Conv ops carry their im2col product in A/N/B, exactly like
		// matmuls — OpProof.Dims on the report side does the same, so
		// both derivations of the key agree.
		if op.Kind == nn.OpMatMul || op.Kind == nn.OpConv2D {
			ops[i].dims = [3]int{op.A, op.N, op.B}
		} else {
			ops[i].dims = [3]int{op.Rows, op.Width, 0}
		}
	}
	return modelKey(tenant, req.Backend, req.Cfg.Name, ops), nil
}

// modelKeyFromReport derives the same key from the report the job
// produced: OpProof carries exactly the structural fields the plan had,
// so a report routes back to the node that issued it.
func modelKeyFromReport(tenant string, rep *zkml.Report) []byte {
	ops := make([]opShape, len(rep.Ops))
	for i := range rep.Ops {
		op := &rep.Ops[i]
		ops[i] = opShape{kind: op.Kind, layer: op.Layer, tag: op.Tag, dims: op.Dims}
	}
	return modelKey(tenant, rep.Backend, rep.Model, ops)
}
