package exec

import (
	"context"
	"sync"
	"time"
)

// Batcher coalesces compatible concurrent operations: the first arrival
// under a key becomes the group's leader, waits one admission window for
// batch-mates, then runs the whole group in a single call and hands each
// member its own result. Later arrivals under the same key join the open
// group and just wait. Keys partition compatibility (the warehouse keys
// groups by snapshot identity, so only queries against the same epoch
// and delta high-water mark ever share a scan).
//
// A group failure (I/O error, leader cancellation) is reported to every
// member; members fall back to solo execution, so batching can only ever
// be a performance effect. A member whose own context expires while
// waiting leaves with its context error; the batch keeps running for the
// others.
type Batcher[K comparable, I, R any] struct {
	window time.Duration

	mu     sync.Mutex
	groups map[K]*batchGroup[I, R]
}

type batchGroup[I, R any] struct {
	items []I
	done  chan struct{} // closed once out/err are set
	out   []R
	err   error
}

// NewBatcher builds a Batcher with the given admission window. The
// window bounds the latency a leader donates waiting for batch-mates;
// O(100µs)–O(1ms) keeps it well under one physical I/O.
func NewBatcher[K comparable, I, R any](window time.Duration) *Batcher[K, I, R] {
	if window <= 0 {
		window = 100 * time.Microsecond
	}
	return &Batcher[K, I, R]{window: window, groups: make(map[K]*batchGroup[I, R])}
}

// Do submits one item under a compatibility key and returns its result
// plus the size of the batch it ran in. run is invoked exactly once per
// group — by the leader, with every member's item in arrival order —
// and must return one result per item. Non-leaders' run values are
// never called.
func (b *Batcher[K, I, R]) Do(ctx context.Context, key K, item I, run func(items []I) ([]R, error)) (R, int, error) {
	var zero R
	b.mu.Lock()
	g, ok := b.groups[key]
	if ok {
		idx := len(g.items)
		g.items = append(g.items, item)
		b.mu.Unlock()
		select {
		case <-g.done:
		case <-ctx.Done():
			return zero, 0, ctx.Err()
		}
		if g.err != nil {
			return zero, len(g.items), g.err
		}
		return g.out[idx], len(g.items), nil
	}
	g = &batchGroup[I, R]{items: []I{item}, done: make(chan struct{})}
	b.groups[key] = g
	b.mu.Unlock()

	// Leader: donate one window to batch-mates, then seal and run.
	timer := time.NewTimer(b.window)
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
	}
	b.mu.Lock()
	delete(b.groups, key) // seal: later arrivals start a fresh group
	items := g.items
	b.mu.Unlock()

	if err := ctx.Err(); err != nil {
		g.err = err
		close(g.done)
		return zero, 0, err
	}
	out, err := run(items)
	if err == nil && len(out) != len(items) {
		panic("exec: Batcher run returned wrong result count")
	}
	g.out, g.err = out, err
	close(g.done)
	if err != nil {
		return zero, len(items), err
	}
	return out[0], len(items), nil
}
