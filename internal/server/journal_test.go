package server

import (
	"context"
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"
	"time"

	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestAttestationBeforeLastFrame pins "record visible" and "attested" as
// one step, for both kinds of model job, 1,000 times at one core and at
// all of them: a reader blocked on a journal's last frame must find the
// report attested and the job done the moment it wakes. A submitted
// job's hook attests in memory (its journal is the durable record); an
// attached job's takes frame credits and attests in the durable issued
// log, the path /v1/prove/model runs.
func TestAttestationBeforeLastFrame(t *testing.T) {
	const rounds = 1000
	header := pinHeader(2)
	ops := []*zkml.OpProof{{Seq: 1, Tag: "b", Dims: [3]int{2, 3, 4}}, {Seq: 0, Tag: "a", Dims: [3]int{2, 3, 4}}}
	want := modelReportDigest(header, [][32]byte{sha256.Sum256(wire.EncodeOpProof(ops[1])), sha256.Sum256(wire.EncodeOpProof(ops[0]))}, "acme")
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < rounds; i++ {
			for _, attached := range []bool{false, true} {
				s := &Server{metrics: &metrics{}, issued: newIssuedLog(issuedLogCap)}
				id, hook := pinCompleteID, s.attestJournaled
				if attached {
					id, hook = "", s.attestIssued
				}
				jl, err := newJournal(id, "acme", pinCreated, time.Time{}, "", header, 2, hook)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				j := &asyncJob{id: id, jl: jl, ctx: ctx, cancel: cancel, state: wire.JobRunning}
				if attached {
					j.credits = make(chan struct{}, attachedQueuedFrames)
				}
				ready, verdict := make(chan struct{}), make(chan string, 1)
				go func() {
					close(ready)
					switch _, ok := jl.frame(context.Background(), len(ops)); {
					case !ok:
						verdict <- "last frame never arrived"
					case !s.issued.has(want):
						verdict <- "last frame visible before the report was attested"
					case j.status(0).State != wire.JobDone:
						verdict <- "last frame visible before the job was done"
					default:
						verdict <- ""
					}
				}()
				<-ready
				runtime.Gosched() // let the reader block on the missing frame
				var wg sync.WaitGroup
				for _, op := range ops {
					wg.Add(1)
					go func() {
						defer wg.Done()
						j.journalOp(s, op)
					}()
				}
				wg.Wait()
				cancel()
				if msg := <-verdict; msg != "" {
					t.Fatalf("attached=%v, GOMAXPROCS=%d, round %d: %s", attached, procs, i, msg)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
