package storage

import (
	"context"

	"repro/internal/bitmap"
)

// granule is one prefetch-granule read: fragment pages
// [start, start+count).
type granule struct {
	start, count int32
}

// forEachGranule reads the granule list in order on the calling worker —
// one physical I/O per granule (Sections 4.3 and 4.5), or a pool hit —
// and calls fn with each granule and its pages, which are valid only
// during that call: a pool entry stays pinned until fn returns, and
// without a pool every granule is read into the worker's page buffer,
// grown as needed and kept for the next.
func (e *Executor) forEachGranule(ctx context.Context, sc *scratch, st *IOStats, id int64, grans []granule, fn func(g granule, buf []byte)) error {
	pooled := e.store.pool != nil
	for _, g := range grans {
		buf, ent, hit, err := e.store.ReadGranuleCtx(ctx, sc.page, id, int(g.start), int(g.count))
		if err != nil {
			return err
		}
		st.FactIOs++
		st.FactPages += int64(g.count)
		if pooled {
			st.notePool(hit, len(buf))
		} else {
			sc.page = buf
		}
		fn(g, buf)
		if ent != nil {
			ent.Unpin()
		}
	}
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
