package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/frag"
	"repro/internal/kernel"
)

// The wire format of every body the HTTP transport moves. /exec requests
// and replies and /append rows are one binary frame: a version byte, then
// varints in the order one walk per body lists them, the same walk
// encoding and decoding. A frame has one encoding per value. /stats is
// JSON. The Local transport exchanges the same structs unencoded, so the
// equivalence tests isolate any divergence to this file.

// wireVersion leads every frame: a peer built with another layout fails
// on it instead of misreading the fields.
const wireVersion = 2

// errFrame is the one decode error; each failure wraps it with what
// failed.
var errFrame = errors.New("cluster: malformed wire frame")

// packPartial puts a node partial on the response: its groups are a run,
// sorted by key, so the same partial always encodes to the same bytes.
func packPartial(resp *Response, p kernel.FragPartial) {
	resp.Agg, resp.Groups = p.Agg, p.Groups
}

// EncodeResponse frames a response — what the HTTP transport ships a
// partial in: walkResponse's 22 fixed varints, then five per group. The
// error is always nil.
func EncodeResponse(r Response) ([]byte, error) { return encodeFrame(r, 22+5*len(r.Groups)), nil }

// DecodeResponse decodes EncodeResponse's frame.
func DecodeResponse(data []byte) (Response, error) { return decodeFrame[Response](data) }

func encodeRequest(r Request) []byte { return encodeFrame(r, 2+3*len(r.Preds)+2*len(r.GroupBy)) }

func encodeRows(rows []Row) []byte {
	varints := 1
	for _, r := range rows {
		varints += 4 + len(r.Leaves)
	}
	return encodeFrame(rows, varints)
}

func walkResponse(c *codec, r *Response) {
	e, s, sh := &r.Engine, &r.IO, &r.Shared
	ints(c, &r.Agg.Count, &r.Agg.UnitsSold, &r.Agg.DollarSales, &r.Agg.Cost)
	grouped := 0
	if r.Grouped {
		grouped = 1
	}
	ints(c, &grouped, &e.FragmentsProcessed, &sh.Batched, &sh.FragmentsShared)
	if grouped != 0 && grouped != 1 {
		c.fail("bad grouped flag")
	}
	r.Grouped = grouped == 1
	ints(c, &r.Epoch, &r.DeltaRows, &e.RowsScanned, &e.BitmapsRead,
		&s.FactPages, &s.FactIOs, &s.BitmapPages, &s.BitmapIOs, &s.RowsRead,
		&s.PoolHits, &s.PoolMisses, &s.PoolBytes, &sh.PhysReadsSaved)
	// A group is at least a one-byte key and four one-byte measures, and
	// the groups are a run: the coordinator merges runs.
	slice(c, &r.Groups, 5, func(g *kernel.Group) {
		c.u64(&g.Key)
		ints(c, &g.Agg.Count, &g.Agg.UnitsSold, &g.Agg.DollarSales, &g.Agg.Cost)
	})
	for i := 1; i < len(r.Groups) && !c.enc; i++ {
		if r.Groups[i-1].Key >= r.Groups[i].Key {
			c.fail("group keys not ascending")
		}
	}
}

// walkRequest lists the predicate triples, then the GROUP BY pairs.
func walkRequest(c *codec, r *Request) {
	slice(c, &r.Preds, 3, func(p *frag.Pred) { ints(c, &p.Dim, &p.Level, &p.Member) })
	slice(c, &r.GroupBy, 2, func(g *frag.LevelRef) { ints(c, &g.Dim, &g.Level) })
}

// walkRows lists the rows, each its leaf count, leaves and three measures.
func walkRows(c *codec, rows *[]Row) {
	slice(c, rows, 4, func(r *Row) {
		slice(c, &r.Leaves, 1, func(l *int32) { ints(c, l) })
		ints(c, &r.UnitsSold, &r.DollarSales, &r.Cost)
	})
}

// encodeStats renders /stats as JSON: NodeStats is all integers and
// bools, so marshalling cannot fail, and an operator can read it.
func encodeStats(st NodeStats) []byte {
	b, _ := json.Marshal(st)
	return b
}

func decodeStats(data []byte) (st NodeStats, err error) {
	err = json.Unmarshal(data, &st)
	return st, err
}

// frame is what a binary body carries.
type frame interface{ Request | Response | []Row }

// codec runs a walk in one direction: encoding appends each field to b
// and never writes through the value's slices (concurrent sub-requests
// share them); decoding reads each field from b, where the first failure
// sticks and stops any further allocation.
type codec struct {
	enc bool
	b   []byte
	err error
}

// encodeFrame encodes v into one allocation with room for the given
// number of varints.
func encodeFrame[T frame](v T, varints int) []byte {
	c := codec{enc: true, b: append(make([]byte, 0, 1+varints*binary.MaxVarintLen64), wireVersion)}
	walk(&c, &v)
	return c.b
}

// decodeFrame decodes a T; on error the value is partial.
func decodeFrame[T frame](data []byte) (v T, err error) {
	switch {
	case len(data) == 0:
		return v, fmt.Errorf("%w: empty body", errFrame)
	case data[0] != wireVersion:
		return v, fmt.Errorf("%w: version %d, want %d", errFrame, data[0], wireVersion)
	}
	c := codec{b: data[1:]}
	walk(&c, &v)
	if len(c.b) > 0 {
		c.fail(fmt.Sprintf("%d trailing bytes", len(c.b)))
	}
	return v, c.err
}

// walk dispatches statically, so the codec and the value stay on the
// stack.
func walk[T frame](c *codec, v *T) {
	switch v := any(v).(type) {
	case *Response:
		walkResponse(c, v)
	case *Request:
		walkRequest(c, v)
	case *[]Row:
		walkRows(c, v)
	}
}

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errFrame, what)
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	// A zero last byte after the first is an overlong encoding.
	if n <= 0 || n > 1 && c.b[n-1] == 0 {
		c.fail("bad varint")
		return
	}
	*v, c.b = x, c.b[n:]
}

// ints walks signed integers as zigzag varints (binary.AppendVarint's
// encoding); a decoded value must fit its type.
func ints[T int | int32 | int64](c *codec, vs ...*T) {
	for _, v := range vs {
		x := int64(*v)
		u := uint64(x<<1) ^ uint64(x>>63)
		c.u64(&u)
		if c.enc {
			continue
		}
		x = int64(u>>1) ^ -int64(u&1)
		*v = T(x)
		if int64(*v) != x {
			c.fail("integer out of range")
		}
	}
}

// slice walks a counted slice. A decoded count the bytes left cannot
// hold at minSize bytes per element fails before anything is allocated.
func slice[T any](c *codec, s *[]T, minSize uint64, each func(*T)) {
	n := uint64(len(*s))
	c.u64(&n)
	if !c.enc && c.err == nil && n > 0 {
		if n > uint64(len(c.b))/minSize {
			c.fail("count exceeds the body")
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}
