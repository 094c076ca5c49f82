package serve

import "sync"

// simFlights coalesces identical in-flight simulation jobs. Simulations
// are asynchronous (clients poll their own job ID), so instead of parking
// waiters on a channel the table records which job IDs are waiting for a
// key; the leader finishes them all from its one result.
type simFlights struct {
	mu sync.Mutex
	//pftk:guardedby mu
	waiting map[cacheKey][]string
}

func newSimFlights() *simFlights {
	return &simFlights{waiting: map[cacheKey][]string{}}
}

// join registers interest in key. The first caller becomes the leader
// (its own job ID is not recorded — the leader finishes its job directly)
// and must eventually call take; later callers' job IDs accumulate until
// the leader takes them.
func (t *simFlights) join(key cacheKey, jobID string) (leader bool) {
	t.mu.Lock()
	ids, ok := t.waiting[key]
	if ok {
		t.waiting[key] = append(ids, jobID)
	} else {
		t.waiting[key] = nil
		leader = true
	}
	t.mu.Unlock()
	return leader
}

// take removes the key's flight and returns the waiting job IDs, which
// the leader must drive to a terminal state. A successful result must
// be cached before take so late arrivals hit the cache instead of
// finding neither flight nor result.
func (t *simFlights) take(key cacheKey) []string {
	t.mu.Lock()
	ids := t.waiting[key]
	delete(t.waiting, key)
	t.mu.Unlock()
	return ids
}
