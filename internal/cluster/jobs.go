package cluster

// Async-job routing. A submission routes like a sync model job, but the
// exchange is two-phase: the 202 comes back at once and the frames are
// fetched later, possibly across many connections. The coordinator
// therefore remembers which node each accepted job ID lives on (a
// bounded table — the journal, not this table, is the durable truth),
// and the status, stream and cancel routes find their one candidate
// through it.

import (
	"fmt"
	"net/http"
	"sync"

	"zkvc/internal/server"
	"zkvc/internal/wire"
)

// jobRouteCap bounds the coordinator's jobID→node memory. Evicting an
// old route is not data loss — the journal lives on its node — it only
// costs that job's reachability through this coordinator.
const jobRouteCap = 4096

// jobRouteTable is the bounded FIFO map from job ID to node name.
type jobRouteTable struct {
	mu    sync.Mutex
	byID  map[string]string
	order []string
}

func newJobRouteTable() *jobRouteTable {
	return &jobRouteTable{byID: make(map[string]string)}
}

func (t *jobRouteTable) add(id, nodeName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		t.order = append(t.order, id)
		if len(t.order) > jobRouteCap {
			delete(t.byID, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.byID[id] = nodeName
}

func (t *jobRouteTable) lookup(id string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	name, ok := t.byID[id]
	return name, ok
}

func (t *jobRouteTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, id) // the order slot becomes a harmless tombstone
}

func (t *jobRouteTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// byJobHome resolves a job exchange to the node holding the job's
// journal, whatever its health: the journal lives nowhere else. An
// unknown ID and an evicted route get the honest 404 a node gives for a
// reaped job — there is nothing there anymore.
func byJobHome(c *Coordinator, r *http.Request, _ any) ([]*node, error) {
	jobID := r.PathValue("id")
	name, ok := c.jobRoutes.lookup(jobID)
	if !ok {
		return nil, &server.StatusError{Code: http.StatusNotFound,
			Body: "no such job on this cluster (it may have expired, been reaped, or its route evicted)"}
	}
	n := c.lookup(name)
	if n == nil {
		c.jobRoutes.remove(jobID)
		return nil, &server.StatusError{Code: http.StatusNotFound,
			Body: fmt.Sprintf("job's node %s has left the cluster; its journal is gone with it", name)}
	}
	return []*node{n}, nil
}

// recordJobRoute remembers an accepted job's node, peeking the ID out of
// the 202's status body.
func recordJobRoute(c *Coordinator, _ *http.Request, n *node, code int, body []byte) {
	if code != http.StatusAccepted {
		return
	}
	if st, err := wire.DecodeJobStatus(body); err == nil && st.ID != "" {
		c.jobRoutes.add(st.ID, n.name)
	}
	c.metrics.jobsRouted.Add(1)
}

// dropJobRoute forgets a canceled job: its journal is gone.
func dropJobRoute(c *Coordinator, r *http.Request, _ *node, code int, _ []byte) {
	if code == http.StatusNoContent {
		c.jobRoutes.remove(r.PathValue("id"))
	}
}
