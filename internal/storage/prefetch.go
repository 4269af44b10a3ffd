package storage

import (
	"context"

	"repro/internal/bitmap"
)

// Async granule prefetch: the executor's fact reads are issued one
// prefetch granule ahead of aggregation, so the disk (or the simulated
// per-disk queue) works on granule g+1 while the CPU unpacks and
// aggregates granule g — the read-ahead the paper's prefetching assumes
// within one subquery. The pipeline is a classic two-buffer exchange: a
// reader goroutine takes an empty buffer from `free`, fills it with one
// granule, and hands it over through `filled`; the consumer returns each
// buffer after aggregating it. With channel capacity 2 and two buffers,
// at most one granule is in flight ahead of the consumer and no buffer is
// ever written while it is being read.
//
// With a buffer pool attached the buffers no longer circulate — a granule
// may arrive as a pinned pool entry (hit or freshly cached) or a private
// buffer (pool full) — so the backpressure switches from buffer recycling
// to read-ahead tokens: the reader takes a token from `tok` before each
// read and the consumer returns one as it advances past each granule,
// pinning each pool entry exactly for the window the aggregation reads
// from it and unpinning on advance.

// granule is one prefetch-granule read: fragment pages
// [start, start+count).
type granule struct {
	start, count int32
}

// gread is one completed granule read. ent is the pinned pool entry
// backing buf when the read went through the pool (nil for a private
// buffer); hit reports a pool hit.
type gread struct {
	buf []byte
	ent *PoolEntry
	hit bool
	err error
}

// granulePipe hands out the page buffers of a granule list in order,
// reading ahead on a background goroutine when async. The struct lives in
// the per-worker scratch and is reused across fragments; only the
// channels and the two pipeline buffers persist.
type granulePipe struct {
	e      *Executor
	ctx    context.Context
	sc     *scratch
	st     *IOStats
	id     int64
	grans  []granule
	k      int        // next granule index to hand out
	prev   []byte     // unpooled: buffer owned by the consumer, returned on the next call
	pent   *PoolEntry // pooled: entry pinned for the granule being aggregated
	ptok   bool       // pooled: consumer owes the pipeline one token
	pooled bool
	async  bool
}

// startGranules begins reading the fragment's granules in list order.
// Async prefetch engages when enabled and there is more than one granule
// (a single granule has nothing to overlap with).
func (e *Executor) startGranules(ctx context.Context, sc *scratch, st *IOStats, id int64, grans []granule) *granulePipe {
	p := &sc.gpipe
	*p = granulePipe{e: e, ctx: ctx, sc: sc, st: st, id: id, grans: grans,
		pooled: e.store.pool != nil,
		async:  e.AsyncPrefetch && len(grans) > 1}
	if p.async {
		if p.pooled {
			if sc.tok == nil {
				sc.tok = make(chan struct{}, 2)
				sc.filled = make(chan gread, 2)
			}
			sc.tok <- struct{}{}
			sc.tok <- struct{}{}
		} else if sc.free == nil {
			sc.free = make(chan []byte, 2)
			sc.filled = make(chan gread, 2)
			// Two empty slots; ReadPagesInto allocates and grows the
			// actual buffers, which then circulate for good.
			sc.free <- nil
			sc.free <- nil
		}
		go p.reader()
	}
	return p
}

// reader is the prefetch goroutine: it reads every granule of the list in
// order, blocking on `free` (or on a read-ahead token when pooled) until
// the consumer is at most one granule behind. On a read error it reports
// it and exits; the consumer then discards the channels, so the pipeline
// never observes a stale result.
func (p *granulePipe) reader() {
	if p.pooled {
		for _, g := range p.grans {
			<-p.sc.tok
			buf, ent, hit, err := p.e.store.ReadGranuleCtx(p.ctx, nil, p.id, int(g.start), int(g.count))
			p.sc.filled <- gread{buf: buf, ent: ent, hit: hit, err: err}
			if err != nil {
				return
			}
		}
		return
	}
	for _, g := range p.grans {
		buf := <-p.sc.free
		buf, err := p.e.store.ReadPagesCtx(p.ctx, buf, p.id, int(g.start), int(g.count))
		p.sc.filled <- gread{buf: buf, err: err}
		if err != nil {
			return
		}
	}
}

// advance releases whatever the consumer holds for the previous granule:
// the pin on its pool entry, and (async) the buffer or token owed to the
// pipeline.
func (p *granulePipe) advance() {
	if p.pent != nil {
		p.pent.Unpin()
		p.pent = nil
	}
	if !p.async {
		return
	}
	if p.pooled {
		if p.ptok {
			p.sc.tok <- struct{}{}
			p.ptok = false
		}
		return
	}
	if p.prev != nil {
		p.sc.free <- p.prev
		p.prev = nil
	}
}

// next returns the next granule of the list and its filled page buffer,
// recycling the previously handed-out buffer (or pin) into the pipeline.
// The buffer is valid until the following next (or finish) call. After
// an error the pipe is over, as after finish.
func (p *granulePipe) next() (granule, []byte, error) {
	g := p.grans[p.k]
	p.k++
	p.advance()
	var buf []byte
	var hit bool
	var err error
	switch {
	case p.async:
		r := <-p.sc.filled
		if err = r.err; err != nil {
			// The reader has exited; drop the channels (and any buffer or
			// token still inside) so the next fragment starts fresh.
			p.sc.free, p.sc.tok, p.sc.filled = nil, nil, nil
			break
		}
		p.pent, hit = r.ent, r.hit
		p.ptok = p.pooled
		if !p.pooled {
			p.prev = r.buf
		}
		buf = r.buf
	case p.pooled:
		buf, p.pent, hit, err = p.e.store.ReadGranuleCtx(p.ctx, nil, p.id, int(g.start), int(g.count))
	default:
		p.sc.page, err = p.e.store.ReadPagesCtx(p.ctx, p.sc.page, p.id, int(g.start), int(g.count))
		buf = p.sc.page
	}
	if err != nil {
		*p = granulePipe{}
		return g, nil, err
	}
	p.st.FactIOs++
	p.st.FactPages += int64(g.count)
	if p.pooled {
		p.st.notePool(hit, len(buf))
	}
	return g, buf, nil
}

// finish returns the last buffer (or pin and token) to the pipeline once
// every granule has been consumed, restoring the pipeline invariants for
// the next fragment, and forgets the call: a scratch resting on its free
// list keeps no executor, context or counters alive.
func (p *granulePipe) finish() {
	p.advance()
	if p.pooled && p.async {
		// Drain the two resting tokens so the next fragment's pipeline
		// starts from a full complement again.
		<-p.sc.tok
		<-p.sc.tok
	}
	*p = granulePipe{}
}

// forEachGranule streams the granule list through the pipe, calling fn
// with each granule and its pages.
func (e *Executor) forEachGranule(ctx context.Context, sc *scratch, st *IOStats, id int64, grans []granule, fn func(g granule, buf []byte)) error {
	p := e.startGranules(ctx, sc, st, id, grans)
	for range grans {
		g, buf, err := p.next()
		if err != nil {
			return err
		}
		fn(g, buf)
	}
	p.finish()
	return nil
}

// granuleAt returns granule gi of a fragment of the given page count at
// granule size g; the last one may be short.
func granuleAt(gi, g, pages int) granule {
	return granule{start: int32(gi * g), count: int32(min(g, pages-gi*g))}
}

// appendGranules appends the granules, at granule size g, of a fragment
// of the given page count and tpp rows a page that hold a row hits
// selects: every granule when hits is nil.
func appendGranules(dst []granule, hits *bitmap.Bitset, pages, g, tpp int) []granule {
	next := 0
	for gi := 0; gi*g < pages && next >= 0; gi++ {
		if hits != nil {
			rowHi := (gi + 1) * g * tpp
			if next = hits.NextSet(next); next < 0 || next >= rowHi {
				continue // no hit in this granule
			}
			next = rowHi // the next granule's hits start past this one
		}
		dst = append(dst, granuleAt(gi, g, pages))
	}
	return dst
}
