package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// TestNoModePrintsUsageAndExits2 builds the command and runs it bare: it
// must list its flags — the five table/figure ones and nothing else —
// and exit 2 rather than run an experiment nobody asked for.
func TestNoModePrintsUsageAndExits2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "zkvc-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bare run: err = %v, want exit status 2\n%s", err, out)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(out, -1) {
		flags = append(flags, string(m[1]))
	}
	if want := []string{"all", "fig", "full", "seed", "table"}; !slices.Equal(flags, want) {
		t.Fatalf("usage lists flags %v, want %v\n%s", flags, want, out)
	}
}
