package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/frag"
	"repro/internal/kernel"
)

func TestPackPartialCanonical(t *testing.T) {
	// Two partials with the same content built in different insertion
	// orders must encode to identical bytes (sorted parallel slices).
	build := func(keys []uint64) kernel.FragPartial {
		g := kernel.NewGrouped()
		for i, k := range keys {
			g.Add(k, kernel.Aggregate{Count: int64(i%3) + 1, UnitsSold: int64(k)})
		}
		// Re-add in the given order so both builds hold identical sums.
		return kernel.FragPartial{Agg: kernel.Aggregate{Count: 9}, Groups: g}
	}
	a := build([]uint64{7, 1, 99, 3})
	b := build([]uint64{7, 1, 99, 3})
	var ra, rb Response
	ra.Grouped, rb.Grouped = true, true
	packPartial(&ra, a)
	packPartial(&rb, b)
	ea, err := EncodeResponse(ra)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeResponse(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("same partial content encoded to different bytes")
	}
	for i := 1; i < len(ra.Groups); i++ {
		if ra.Groups[i-1].Key >= ra.Groups[i].Key {
			t.Fatalf("keys not strictly ascending: %v", ra.Groups)
		}
	}
}

func TestResponsePartialRoundTrip(t *testing.T) {
	g := kernel.NewGrouped()
	g.Add(3, kernel.Aggregate{Count: 2, UnitsSold: 5, DollarSales: 7, Cost: 11})
	g.Add(1, kernel.Aggregate{Count: 1, UnitsSold: 1})
	p := kernel.FragPartial{Agg: kernel.Aggregate{Count: 3, UnitsSold: 6, DollarSales: 7, Cost: 11}, Groups: g}
	// Every counter field non-zero and distinct (negative ones too), so a
	// field the frame forgets — or two it swaps — cannot round-trip.
	resp := Response{Grouped: true}
	next := int64(-5)
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			next++
			v.Field(i).SetInt(next * 1000003)
		}
	}
	fill(reflect.ValueOf(&resp.Engine).Elem())
	fill(reflect.ValueOf(&resp.IO).Elem())
	fill(reflect.ValueOf(&resp.Shared).Elem())
	resp.Epoch, resp.DeltaRows = 4, -2
	packPartial(&resp, p)
	data, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, resp) {
		t.Fatalf("round trip changed the response:\n%+v\n%+v", dec, resp)
	}
	want := []Group{{1, kernel.Aggregate{Count: 1, UnitsSold: 1}}, {3, kernel.Aggregate{Count: 2, UnitsSold: 5, DollarSales: 7, Cost: 11}}}
	if !reflect.DeepEqual(dec.Groups, want) {
		t.Fatalf("groups %v != %v", dec.Groups, want)
	}
}

func TestResponsePartialUngroupedVsEmptyGroups(t *testing.T) {
	// Grouped-with-zero-matches and ungrouped both carry no groups; the
	// Grouped flag must keep them distinguishable through the wire.
	grouped := Response{Grouped: true}
	packPartial(&grouped, kernel.FragPartial{Groups: kernel.NewGrouped()})
	ungrouped := Response{}
	packPartial(&ungrouped, kernel.FragPartial{})
	for _, tc := range []struct {
		name string
		resp Response
		want bool
	}{{"grouped-empty", grouped, true}, {"ungrouped", ungrouped, false}} {
		data, err := EncodeResponse(tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Grouped != tc.want || len(dec.Groups) != 0 {
			t.Errorf("%s: Grouped = %v with %d groups, want %v with none", tc.name, dec.Grouped, len(dec.Groups), tc.want)
		}
	}
}

// allocated reports the bytes fn allocates on the heap: the least of
// three runs, since the fuzzing engine's own goroutines allocate beside
// it now and then.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkFrame is the rule every fuzzed body obeys: arbitrary bytes decode
// to an errFrame error, or to a value whose encoding is the input byte
// for byte — never a panic, and never an allocation beyond a small
// multiple of the input (plus the error's own few hundred bytes).
func checkFrame[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	var v T
	var err error
	if n := allocated(func() { v, err = decode(data) }); n > 32*uint64(len(data))+1024 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), n)
	}
	if err != nil {
		if !errors.Is(err, errFrame) {
			t.Fatalf("decode error %v does not wrap errFrame", err)
		}
		return
	}
	if enc := encode(v); !bytes.Equal(enc, data) {
		t.Fatalf("decoded %+v re-encodes to %x, not %x", v, enc, data)
	}
}

// FuzzRequestDecode fuzzes the /exec request body a node reads.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{wireVersion, 0x7f, 0})
	f.Add([]byte{wireVersion, 0x80, 0, 0})
	f.Add(encodeRequest(Request{}))
	f.Add(encodeRequest(Request{
		Preds:   []frag.Pred{{Dim: 0, Level: 2, Member: 11}, {Dim: 3, Level: 0, Member: -1}},
		GroupBy: []frag.LevelRef{{Dim: 1, Level: 1}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data, decodeFrame[Request], encodeRequest)
	})
}

// FuzzRowsDecode fuzzes the /append row body a node reads.
func FuzzRowsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{wireVersion, 0, 3})
	f.Add([]byte{wireVersion, 0x7f, 1, 0, 0, 0, 0})
	f.Add(encodeRows([]Row{
		{Leaves: []int32{1, 2, 3, 1 << 30}, UnitsSold: 5, DollarSales: -6, Cost: 1 << 40},
		{Leaves: []int32{-1, 0, 7, 9}, UnitsSold: 1},
		{},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data, decodeFrame[[]Row], encodeRows)
	})
}

// FuzzFragPartialRoundTrip fuzzes the transport codec: arbitrary group
// maps must survive encode/decode with content intact, and the encoding
// must be a fixed point (canonical form re-encodes byte-identically).
// The raw bytes are also a reply body the coordinator reads, under
// checkFrame's rule.
func FuzzFragPartialRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkFrame(t, raw, DecodeResponse, func(r Response) []byte {
			b, _ := EncodeResponse(r)
			return b
		})
		g := kernel.NewGrouped()
		var total kernel.Aggregate
		want := map[uint64]kernel.Aggregate{}
		for len(raw) >= 12 {
			key := binary.LittleEndian.Uint64(raw)
			v := int64(int32(binary.LittleEndian.Uint32(raw[8:])))
			raw = raw[12:]
			a := kernel.Aggregate{Count: 1, UnitsSold: v, DollarSales: -v, Cost: v / 2}
			g.Add(key, a)
			total.Add(a)
			cur := want[key]
			cur.Add(a)
			want[key] = cur
		}
		resp := Response{Grouped: true, Epoch: 1}
		packPartial(&resp, kernel.FragPartial{Agg: total, Groups: g})
		enc, err := EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeResponse(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Agg != total {
			t.Fatalf("Agg %+v != %+v", dec.Agg, total)
		}
		p := kernel.FragPartial{Agg: dec.Agg, Groups: kernel.NewGrouped()}
		got := map[uint64]kernel.Aggregate{}
		for _, g := range dec.Groups {
			got[g.Key] = g.Agg
			p.Groups.Add(g.Key, g.Agg)
		}
		if len(got) != len(dec.Groups) || len(got) != len(want) {
			t.Fatalf("%d groups != %d", len(got), len(want))
		}
		for k, a := range want {
			if got[k] != a {
				t.Fatalf("group %d: %+v != %+v", k, got[k], a)
			}
		}
		// Canonical fixed point: re-packing the decoded partial encodes to
		// the same bytes.
		resp2 := Response{Grouped: true, Epoch: 1}
		packPartial(&resp2, p)
		enc2, err := EncodeResponse(resp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not canonical: round trip changed the bytes")
		}
	})
}
