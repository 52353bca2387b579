package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// seconds formats a duration the way the paper's tables do.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3g", d.Seconds())
}

// kb formats a byte count as Figure 6's proof-size panel does.
func kb(n int) string {
	return fmt.Sprintf("%.3g", float64(n)/1024)
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

func estTag(est bool) string {
	if est {
		return " (est)"
	}
	return ""
}

// PrintTableI writes the capability matrix.
func PrintTableI(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table I: scheme capabilities (paper-reported properties)")
	fmt.Fprintln(tw, "Scheme\tzk\tNon-Inter.\tConst.Proof\tNo Trusted Setup\tTransformers\tEff.MatMult\tzk-ML Codesign")
	for _, r := range TableI() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.Scheme,
			mark(r.ZK), mark(r.NonInteractive), mark(r.ConstProof),
			mark(r.NoTrustedSetup), mark(r.Transformers), mark(r.EffMatMult), mark(r.Codesign))
	}
	tw.Flush()
}

// PrintMatMulResults writes Figure 3/6 rows (one line per scheme×dim).
func PrintMatMulResults(w io.Writer, title string, rows []MatMulResult) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dim\tscheme\tprove(s)\tsetup(s)\tverify(s)\tproof(KB)\tonline(s)\tconstraints\tnote")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%s\n",
			r.Dim, r.Scheme, seconds(r.Prove), seconds(r.Setup), seconds(r.Verify),
			kb(r.ProofBytes), seconds(r.Online), r.Constraints, estTag(r.Estimated))
	}
	tw.Flush()
}

// PrintTableII writes the ablation rows.
func PrintTableII(w io.Writer, rows []AblationResult, full bool) {
	a, n, b := TableIIShape(full)
	fmt.Fprintf(w, "Table II: CRPC/PSQ ablation on [%d,%d]x[%d,%d]\n", a, n, n, b)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CRPC\tPSQ\tconstraints\tgroth16 Prove(s)\tgroth16 Verify(s)\tSpartan Prove(s)\tSpartan Verify(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			mark(r.Opts.CRPC), mark(r.Opts.PSQ), r.GrothConstraints,
			seconds(r.GrothProve), seconds(r.GrothVerify),
			seconds(r.SpartanProve), seconds(r.SpartanVerify))
	}
	tw.Flush()
}

// PrintE2E writes Table III or IV rows.
func PrintE2E(w io.Writer, title string, rows []E2ERow, accHeader string) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "(accuracies are paper-reported; proving times measured-and-extrapolated here)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Dataset\tModel\t%s\tP_G(s)\tP_S(s)\twires\n", accHeader)
	for _, r := range rows {
		acc := ""
		for i, a := range r.PaperAcc {
			if i > 0 {
				acc += "/"
			}
			acc += fmt.Sprintf("%.1f", a)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3g\n",
			r.Dataset, r.Model, acc, seconds(r.ProveG), seconds(r.ProveS), r.Wires)
	}
	tw.Flush()
}
