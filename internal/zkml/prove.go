package zkml

// The backend seam. A matmul statement (single, epoch or batch), a model
// op and a row of the paper's tables are each one satisfied R1CS system,
// and ProveSystem proves it on the chosen backend; Payload.Verify checks
// the result. This file holds the module's only calls into the Setup,
// Prove and Verify of internal/groth16 and internal/spartan.

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/spartan"
)

// Keys is the Groth16 key pair of one circuit.
type Keys struct {
	PK *groth16.ProvingKey
	VK *groth16.VerifyingKey
}

// NewKeys runs a Groth16 setup for sys, drawing the toxic waste from rng.
func NewKeys(sys *r1cs.System, rng *mrand.Rand) (*Keys, error) {
	pk, vk, err := groth16.Setup(sys, rng)
	if err != nil {
		return nil, err
	}
	return &Keys{PK: pk, VK: vk}, nil
}

// KeySource hands ProveSystem the Groth16 keys of a circuit and the setup
// time this call paid for them. A *Keys is a fixed pair whose setup was
// paid elsewhere (an epoch CRS); a *KeyCache sets each circuit up once.
type KeySource interface {
	keysFor(sys *r1cs.System) (*Keys, time.Duration, error)
}

func (k *Keys) keysFor(*r1cs.System) (*Keys, time.Duration, error) { return k, 0, nil }

// Payload is one backend proof: the Groth16 proof with the verifying key
// it checks under, or the Spartan proof, and what setup and proving took.
type Payload struct {
	G16     *groth16.Proof
	G16VK   *groth16.VerifyingKey
	Spartan *spartan.Proof

	Setup time.Duration
	Prove time.Duration
}

// ProveSystem proves a satisfied system on backend. Groth16 keys come
// from keys, or, when keys is nil, from a fresh setup drawing from rng;
// rng then feeds the proof blinding. Spartan uses params (zero means the
// defaults) and neither rng nor keys.
func ProveSystem(backend Backend, sys *r1cs.System, assignment []ff.Fr, params pcs.Params, rng *mrand.Rand, keys KeySource) (*Payload, error) {
	p := &Payload{}
	var err error
	switch backend {
	case Groth16:
		var k *Keys
		if keys != nil {
			k, p.Setup, err = keys.keysFor(sys)
		} else {
			start := time.Now()
			k, err = NewKeys(sys, rng)
			p.Setup = time.Since(start)
		}
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if p.G16, err = groth16.Prove(sys, k.PK, assignment, rng); err != nil {
			return nil, err
		}
		p.Prove, p.G16VK = time.Since(start), k.VK
	case Spartan:
		start := time.Now()
		if p.Spartan, err = spartan.Prove(sys, assignment, pcsOrDefault(params)); err != nil {
			return nil, err
		}
		p.Prove = time.Since(start)
	default:
		return nil, fmt.Errorf("unknown backend %d", backend)
	}
	return p, nil
}

// Verify checks the payload against the public witness on backend. Only
// Spartan consumes the circuit, so circuit is called only there: Groth16's
// circuit binding lives entirely in the verifying key.
func (p *Payload) Verify(backend Backend, circuit func() spartan.Circuit, public []ff.Fr, params pcs.Params) error {
	switch backend {
	case Groth16:
		if p.G16 == nil || p.G16VK == nil {
			return errors.New("missing Groth16 payload")
		}
		return groth16.Verify(p.G16VK, p.G16, public)
	case Spartan:
		var c spartan.Circuit
		if p.Spartan != nil {
			c = circuit()
		}
		if c == nil {
			return errors.New("missing Spartan payload")
		}
		return spartan.VerifyCircuit(c, p.Spartan, public, pcsOrDefault(params))
	}
	return fmt.Errorf("unknown backend %d", backend)
}

// SizeBytes reports the wire size of the backend proof.
func (p *Payload) SizeBytes() int {
	switch {
	case p.G16 != nil:
		return p.G16.SizeBytes()
	case p.Spartan != nil:
		return p.Spartan.SizeBytes()
	}
	return 0
}
