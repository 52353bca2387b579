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
// one step, on both model paths, 1,000 times at one core and at all of
// them. Async: a reader blocked on a journal's last frame must find the
// report attested and the job done the moment it wakes. Sync: the frame
// of the op that completes the plan must reach the stream handler only
// after the report is attested.
func TestAttestationBeforeLastFrame(t *testing.T) {
	const rounds = 1000
	header := pinHeader(2)
	ops := []journalRec{pinOp(1, "b"), pinOp(0, "a")}
	want := modelReportDigest(header, [][32]byte{sha256.Sum256(ops[1].payload), sha256.Sum256(ops[0].payload)}, "acme")
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < rounds; i++ {
			s := &Server{metrics: &metrics{}, issued: newIssuedLog(issuedLogCap)}
			jl, err := newJournal(pinCompleteID, "acme", pinCreated, time.Time{}, "", header, 2, s.attestJournaled)
			if err != nil {
				t.Fatal(err)
			}
			j := &asyncJob{jl: jl, state: wire.JobRunning}
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
			for _, op := range ops {
				if err := jl.append(op); err != nil {
					t.Fatal(err)
				}
			}
			if msg := <-verdict; msg != "" {
				t.Fatalf("async, GOMAXPROCS=%d, round %d: %s", procs, i, msg)
			}

			s = &Server{metrics: &metrics{}, issued: newIssuedLog(issuedLogCap)}
			mj := &modelJob{tenant: "acme", plan: 2, header: header, opHashes: make([][32]byte, 2), events: make(chan modelEvent, modelEventBuffer)}
			var wg sync.WaitGroup
			for seq, tag := range []string{"a", "b"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.streamOp(mj, &zkml.OpProof{Seq: seq, Tag: tag, Dims: [3]int{2, 3, 4}})
				}()
			}
			for k := 1; k <= 2; k++ {
				<-mj.events
				if k == 2 && !s.issued.has(want) {
					t.Fatalf("sync, GOMAXPROCS=%d, round %d: last frame queued before the report was attested", procs, i)
				}
			}
			wg.Wait()
		}
		runtime.GOMAXPROCS(prev)
	}
}
