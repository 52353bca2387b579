package nn

// Verifiable fine-tuning: one SGD step on the classification head,
// recorded as an ordinary trace so it proves through the standard
// model pipeline (local, service, jobs, cluster — nothing downstream
// knows it is a training step).
//
// The step is expressed entirely in the quantized matmul/softmax
// vocabulary the circuits already prove:
//
//	logits = feat·Head                     (traced matmul "head")
//	probs  = softmax(logits)               (traced softmax gadget)
//	dlog   = probs − Scale·onehot(label)   (public integer arithmetic)
//	Grad   = featᵀ·dlog / Scale            (traced matmul "sgd.grad.head")
//	Head'  = Head − lr·Grad / Scale        (traced matmul "sgd.update.head")
//
// The update is a single matmul with a public structured operand
// X = [Scale·I | −lr·I] (D×2D) against the stacked witness [Head; Grad]
// (2D×C): the fixed-point rescale every matmul performs turns row i of
// Scale·Head − lr·Grad into exactly floor((Scale·Head_i − lr·Grad_i)/Scale)
// = Head_i − lr·Grad_i/Scale — so W' = W − lr·∇W is attested by the same
// CRPC+PSQ circuit that proves inference matmuls, no new gadget needed.

import (
	"fmt"

	"zkvc/internal/tensor"
)

// SGDStep is one recorded fine-tuning step: the capturing trace (ready
// for the model proving pipeline) plus the step's arithmetic results.
type SGDStep struct {
	// Trace records the forward pass, the loss softmax, the gradient
	// matmul and the weight-update matmul, with operands captured.
	Trace *Trace

	Logits *tensor.Mat // 1×C pre-softmax head outputs
	Probs  *tensor.Mat // 1×C softmax probabilities (fixed point)
	Grad   *tensor.Mat // D×C quantized head gradient featᵀ·dlog/Scale
	// NewHead is the updated head Head − lr·Grad/Scale. Assign it to
	// m.Head to take the step before tracing the next one.
	NewHead *tensor.Mat
}

// TraceSGDStep runs the model forward on x, computes the cross-entropy
// gradient of the head for the given label, applies one SGD step
// W' = W − lr·∇W over the quantized path, and returns the capturing
// trace of the whole computation. lr is a fixed-point learning rate
// (denominator Cfg.Fixed.Scale(); e.g. Scale()/8 ≈ 0.125). The model is
// not mutated — the caller decides whether to adopt NewHead.
func (m *Model) TraceSGDStep(x *tensor.Mat, label int, lr int64) (*SGDStep, error) {
	return m.sgdStep(x, label, lr, &Trace{Capture: true})
}

// sgdStep is TraceSGDStep recording into the given trace.
func (m *Model) sgdStep(x *tensor.Mat, label int, lr int64, trace *Trace) (*SGDStep, error) {
	cfg := &m.Cfg
	fx := cfg.Fixed
	if label < 0 || label >= cfg.NumClasses {
		return nil, fmt.Errorf("nn: label %d out of range [0, %d)", label, cfg.NumClasses)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("nn: nonpositive learning rate %d", lr)
	}

	feat := m.features(x, trace) // 1×D
	d := feat.Cols

	logits := trace.matmul(-1, "head", feat, m.Head, cfg) // 1×C
	probs := trace.softmax(-1, "sgd.softmax", logits, cfg)

	// dlog = probs − Scale·onehot(label): plain integer arithmetic on
	// values the softmax op already attests.
	scale := fx.Scale()
	dlog := tensor.New(1, cfg.NumClasses)
	for j := 0; j < cfg.NumClasses; j++ {
		v := probs.At(0, j)
		if j == label {
			v -= scale
		}
		dlog.Set(0, j, v)
	}

	grad := trace.matmul(-1, "sgd.grad.head", tensor.Transpose(feat), dlog, cfg) // D×C

	// The update matmul: public X = [Scale·I | −lr·I], witness
	// W = [Head; Grad] stacked row-wise.
	xUpd := tensor.New(d, 2*d)
	for i := 0; i < d; i++ {
		xUpd.Set(i, i, scale)
		xUpd.Set(i, d+i, -lr)
	}
	wStk := tensor.New(2*d, cfg.NumClasses)
	copy(wStk.Data[:d*cfg.NumClasses], m.Head.Data)
	copy(wStk.Data[d*cfg.NumClasses:], grad.Data)
	newHead := trace.matmul(-1, "sgd.update.head", xUpd, wStk, cfg) // D×C

	return &SGDStep{Trace: trace, Logits: logits, Probs: probs, Grad: grad, NewHead: newHead}, nil
}
