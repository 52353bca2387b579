package server

// The endpoint table. Every endpoint with a body — and every endpoint a
// coordinator forwards — is one row of Routes: its mux pattern, its body
// bound, whether it holds a model-body slot, and its decoder. Mount runs
// the one prelude every such request goes through, on a node and on a
// coordinator alike, so no handler reads, bounds or decodes its own
// body.

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"zkvc/internal/wire"
)

// maxBodyBytes bounds request bodies (a 256×256 matrix pair is ~4 MiB).
const maxBodyBytes = 64 << 20

// maxModelBodyBytes bounds model-endpoint bodies, which are legitimately
// much larger: a prove request carries every captured operand tensor of a
// trace, and a report being verified carries per-op proof payloads —
// including, for Spartan ops, the R1CS instance the verifier checks
// against, so report size scales with circuit size.
const maxModelBodyBytes = 1 << 30

// maxAttestBodyBytes bounds one attestation update: the wire format caps
// each direction at 4096 digests of 32 bytes, so 1 MiB clears the
// largest legal update with room for framing.
const maxAttestBodyBytes = 1 << 20

// modelBodySlots bounds how many model-endpoint requests may hold a
// buffered body at once (maxModelBodyBytes each, worst case) — past it
// the endpoints shed load with 503 rather than let unadmitted input
// grow resident memory without bound.
const modelBodySlots = 4

// ModelSlots is the modelBodySlots-wide bound on buffered model bodies.
// A node and a coordinator each hold one.
type ModelSlots chan struct{}

// NewModelSlots returns an empty slot pool.
func NewModelSlots() ModelSlots { return make(ModelSlots, modelBodySlots) }

// Route declares one endpoint: what the prelude needs to turn a request
// into a handler's Input, and nothing about what the handler does.
type Route struct {
	Pattern string
	// Limit bounds the buffered body; 0 means the route takes no body.
	Limit int64
	// ModelSlot holds one ModelSlots slot while the body is buffered,
	// shedding with 503 when none is free.
	ModelSlot bool
	// Decode parses the buffered body; its error is the client's 400.
	Decode func(r *http.Request, body []byte) (any, error)
}

// Decoder adapts a wire decoder to Route.Decode.
func Decoder[T any](decode func([]byte) (T, error)) func(*http.Request, []byte) (any, error) {
	return func(_ *http.Request, body []byte) (any, error) { return decode(body) }
}

// Input is a request past its route's prelude.
type Input struct {
	Msg     any    // the decoded body; nil on a bodyless route
	Body    []byte // the body as read, which a coordinator forwards byte for byte
	Release func() // hands the model slot back early; idempotent, a no-op without a slot
}

// Handler serves a route after its prelude.
type Handler func(w http.ResponseWriter, r *http.Request, in Input)

// Mount registers h on mux behind the route's prelude: take a model slot
// if the row asks for one (503 when none is free), read at most Limit
// bytes and decode them (400 on either failure), then call h. The slot
// goes back when h returns, or earlier through in.Release.
func (rt *Route) Mount(mux *http.ServeMux, slots ModelSlots, h Handler) {
	mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
		in := Input{Release: func() {}}
		if rt.ModelSlot {
			select {
			case slots <- struct{}{}:
			default:
				http.Error(w, "too many concurrent model requests", http.StatusServiceUnavailable)
				return
			}
			var once sync.Once
			in.Release = func() { once.Do(func() { <-slots }) }
			defer in.Release()
		}
		if rt.Limit > 0 {
			var err error
			if in.Body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, rt.Limit)); err != nil {
				http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
				return
			}
			if in.Msg, err = rt.Decode(r, in.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		h(w, r, in)
	})
}

// Routes is every node endpoint that takes a body or that a coordinator
// forwards. A node serves every row (Server.Handler); a coordinator
// forwards every row but Attest, whose updates it fans out itself. All
// proof bodies use the canonical internal/wire encoding; the comment on
// each row names its request and answer.
var Routes = struct {
	Prove, ProveMatMul, ProveBatch, ProveModel, SubmitJob,
	JobStatus, JobStream, CancelJob,
	Verify, VerifyBatch, VerifyModel, Attest Route
}{
	// Coalescing batch proving: wire.ProveRequest → wire.ProveResponse.
	Prove: Route{Pattern: "POST /v1/prove", Limit: maxBodyBytes, Decode: Decoder(wire.DecodeProveRequest)},
	// One per-statement Fiat–Shamir proof, zkvc.Local.ProveMatMul over
	// HTTP: wire.ProveRequest → wire MatMulProof.
	ProveMatMul: Route{Pattern: "POST /v1/prove/matmul", Limit: maxBodyBytes, Decode: Decoder(wire.DecodeProveRequest)},
	// Exactly the submitted pairs folded into one proof, no coalescing
	// window: wire.ProveBatchRequest → wire BatchProof.
	ProveBatch: Route{Pattern: "POST /v1/prove/batch", Limit: maxBodyBytes, Decode: Decoder(wire.DecodeProveBatchRequest)},
	// A captured model trace: wire.ProveModelRequest → framed stream of
	// wire.OpProof.
	ProveModel: Route{Pattern: "POST /v1/prove/model", Limit: maxModelBodyBytes, ModelSlot: true, Decode: Decoder(wire.DecodeProveModelRequest)},
	// A model trace as a durable async job: wire.JobSubmitRequest → 202
	// wire.JobStatus, or 429 + Retry-After.
	SubmitJob: Route{Pattern: "POST /v1/jobs", Limit: maxModelBodyBytes, ModelSlot: true, Decode: Decoder(wire.DecodeJobSubmitRequest)},
	// Poll a job → wire.JobStatus.
	JobStatus: Route{Pattern: "GET /v1/jobs/{id}"},
	// Stream the job's frames; ?from=k resumes after k acked frames.
	JobStream: Route{Pattern: "GET /v1/jobs/{id}/stream"},
	// Cancel a job and delete its journal → 204.
	CancelJob: Route{Pattern: "DELETE /v1/jobs/{id}"},
	// Check a single proof: wire.VerifyRequest → JSON verdict.
	Verify: Route{Pattern: "POST /v1/verify", Limit: maxBodyBytes, Decode: Decoder(wire.DecodeVerifyRequest)},
	// Check a coalesced batch: wire.ProveResponse → JSON verdict.
	VerifyBatch: Route{Pattern: "POST /v1/verify/batch", Limit: maxBodyBytes, Decode: Decoder(wire.DecodeProveResponse)},
	// Check a model report this service issued: wire Report → JSON
	// verdict.
	VerifyModel: Route{Pattern: "POST /v1/verify/model", Limit: maxModelBodyBytes, ModelSlot: true, Decode: Decoder(wire.DecodeReport)},
	// A peer's attestation digests relayed by the coordinator, or a node's
	// own sent to it: wire.AttestationUpdate → 200.
	Attest: Route{Pattern: "POST /v1/cluster/attest", Limit: maxAttestBodyBytes, Decode: Decoder(wire.DecodeAttestationUpdate)},
}
