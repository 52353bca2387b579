// Command zkvc proves and verifies matrix multiplications — the paper's
// client/server workflow (Figure 1) as a CLI, either on disk or against
// the concurrent proving service.
//
// On-disk workflow:
//
//	zkvc gen -rows 49 -cols 64 -bound 256 -out x.json
//	zkvc gen -rows 64 -cols 128 -bound 256 -out w.json
//	zkvc prove -x x.json -w w.json -backend spartan -out proof.bin
//	zkvc verify -x x.json -proof proof.bin
//
// Service workflow:
//
//	zkvc serve -addr :8799 -backend spartan -window 10ms
//	zkvc client -server http://localhost:8799 -x x.json -w w.json
//
// End-to-end model workflow (every operation of a transformer forward
// pass proven by the service, per-op proofs streamed back as they
// finish):
//
//	zkvc prove-model -server http://localhost:8799 -model vit-cifar10 -scale 8 -out report.bin
//	zkvc verify-model -server http://localhost:8799 -report report.bin
//
// Cluster workflow (a coordinator shards jobs across prover nodes by
// CRS affinity; clients talk to the coordinator exactly as to a node):
//
//	zkvc serve -addr :8801 &
//	zkvc serve -addr :8802 &
//	zkvc serve -coordinator -addr :8799 -node http://localhost:8801 -node http://localhost:8802
//	zkvc client -server http://localhost:8799 -x x.json -w w.json
//
// Matrices are JSON ({"rows":R,"cols":C,"data":[...int64]}); proofs and
// model reports use the canonical versioned binary format of
// internal/wire.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"

	"zkvc"
	"zkvc/internal/wire"
)

// matrixFile is the on-disk matrix format.
type matrixFile struct {
	Rows int     `json:"rows"`
	Cols int     `json:"cols"`
	Data []int64 `json:"data"`
}

func readMatrix(path string) (*zkvc.Matrix, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf matrixFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if mf.Rows <= 0 || mf.Cols <= 0 || len(mf.Data) != mf.Rows*mf.Cols {
		return nil, fmt.Errorf("%s: inconsistent dims %dx%d with %d values", path, mf.Rows, mf.Cols, len(mf.Data))
	}
	return zkvc.MatrixFromInt64(mf.Rows, mf.Cols, mf.Data), nil
}

func writeMatrix(path string, m *zkvc.Matrix) error {
	mf := matrixFile{Rows: m.Rows, Cols: m.Cols, Data: zkvc.MatrixToInt64(m)}
	raw, err := json.MarshalIndent(mf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zkvc: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: zkvc <gen|prove|verify|serve|client|prove-model|verify-model> [flags]")
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "prove":
		cmdProve(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "client":
		cmdClient(os.Args[2:])
	case "prove-model":
		cmdProveModel(os.Args[2:])
	case "verify-model":
		cmdVerifyModel(os.Args[2:])
	default:
		fatalf("unknown subcommand %q (want gen, prove, verify, serve, client, prove-model or verify-model)", os.Args[1])
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	rows := fs.Int("rows", 49, "matrix rows")
	cols := fs.Int("cols", 64, "matrix cols")
	bound := fs.Int64("bound", 256, "entries drawn uniformly from [-bound, bound]")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output path (required)")
	fs.Parse(args)
	if *out == "" {
		fatalf("gen: -out is required")
	}
	m := zkvc.RandomMatrix(mrand.New(mrand.NewSource(*seed)), *rows, *cols, *bound)
	if err := writeMatrix(*out, m); err != nil {
		fatalf("gen: %v", err)
	}
	fmt.Printf("wrote %dx%d matrix to %s\n", *rows, *cols, *out)
}

func cmdProve(args []string) {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	xPath := fs.String("x", "", "public input matrix (required)")
	wPath := fs.String("w", "", "private weight matrix (required)")
	backendName := fs.String("backend", "spartan", "proof system: groth16 or spartan")
	out := fs.String("out", "proof.bin", "proof output path")
	yOut := fs.String("y", "", "optionally write the public result Y as JSON")
	vanilla := fs.Bool("vanilla", false, "disable CRPC+PSQ (baseline circuit; slow)")
	fs.Parse(args)
	if *xPath == "" || *wPath == "" {
		fatalf("prove: -x and -w are required")
	}
	x, err := readMatrix(*xPath)
	if err != nil {
		fatalf("prove: %v", err)
	}
	w, err := readMatrix(*wPath)
	if err != nil {
		fatalf("prove: %v", err)
	}

	backend, err := parseBackend(*backendName)
	if err != nil {
		fatalf("prove: %v", err)
	}
	opts := zkvc.DefaultOptions()
	if *vanilla {
		opts = zkvc.Options{}
	}

	// The in-process Engine; `zkvc client` is the same workflow against
	// a remote service, by swapping this constructor.
	eng := zkvc.NewLocal(backend, opts)
	proof, err := eng.ProveMatMul(context.Background(), x, w)
	if err != nil {
		fatalf("prove: %v", err)
	}

	if err := os.WriteFile(*out, wire.EncodeMatMulProof(proof), 0o644); err != nil {
		fatalf("prove: writing proof: %v", err)
	}
	fmt.Printf("proved [%d,%d]x[%d,%d] on %s: synthesis %v, setup %v, prove %v, proof %d bytes → %s\n",
		x.Rows, x.Cols, w.Rows, w.Cols, backend,
		proof.Timings.Synthesis.Round(1e6), proof.Timings.Setup.Round(1e6),
		proof.Timings.Prove.Round(1e6), proof.SizeBytes(), *out)
	if *yOut != "" {
		if err := writeMatrix(*yOut, proof.Y); err != nil {
			fatalf("prove: writing Y: %v", err)
		}
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	xPath := fs.String("x", "", "public input matrix (required)")
	proofPath := fs.String("proof", "proof.bin", "proof path")
	fs.Parse(args)
	if *xPath == "" {
		fatalf("verify: -x is required")
	}
	x, err := readMatrix(*xPath)
	if err != nil {
		fatalf("verify: %v", err)
	}
	raw, err := os.ReadFile(*proofPath)
	if err != nil {
		fatalf("verify: %v", err)
	}
	proof, err := wire.DecodeMatMulProof(raw)
	if err != nil {
		fatalf("verify: decoding proof: %v", err)
	}
	if err := zkvc.NewLocal(proof.Backend, proof.Opts).VerifyMatMul(context.Background(), x, proof); err != nil {
		fatalf("verification FAILED: %v", err)
	}
	fmt.Printf("verification OK: Y is %dx%d, backend %s, circuit %s, proof %d bytes\n",
		proof.Y.Rows, proof.Y.Cols, proof.Backend, proof.Opts, proof.SizeBytes())
}
