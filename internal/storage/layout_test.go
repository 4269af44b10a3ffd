package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/workload"
)

// rawBitmapFile writes a bitmap file straight from payloads — one block
// per entry, fragment ids 0, 1, ... — so the layout can be exercised with
// payload sizes no real bitmap produces. The file has no enumeration;
// read it by stored index with readPayloadOf.
func rawBitmapFile(t testing.TB, pageSize int, compressed bool, rows []int32, payloads [][][]byte) (*BitmapFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), bitmapFileName)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bf := &BitmapFile{pageSize: pageSize, file: f, blocks: make(map[int64]bitmapBlock), compressed: compressed}
	t.Cleanup(func() { bf.Close() })
	var block []byte
	for i := range payloads {
		if block, err = bf.writeBlock(int64(i), rows[i], payloads[i], block); err != nil {
			t.Fatal(err)
		}
	}
	return bf, path
}

// readPayloadOf reads stored bitmap di of the fragment through the unit
// read path and returns a copy of its payload.
func readPayloadOf(bf *BitmapFile, id int64, di int) ([]byte, error) {
	var us unitSet
	if err := us.begin(bf, id); err != nil {
		return nil, err
	}
	defer us.release()
	p, _, _, err := us.payload(context.Background(), di, nil)
	return append([]byte(nil), p...), err
}

// checkLayout asserts the layout rule on the file's directory: blocks and
// units are contiguous and cover the file exactly, a payload of a page or
// more is page-aligned and alone in its whole pages, and sub-page
// payloads follow one another inside one page.
func checkLayout(t *testing.T, bf *BitmapFile, path string, frags int) {
	t.Helper()
	ps := int32(bf.pageSize)
	var page int64
	for id := int64(0); id < int64(frags); id++ {
		blk := bf.blocks[id]
		if blk.page != page {
			t.Fatalf("fragment %d: block starts at page %d, previous ended at %d", id, blk.page, page)
		}
		var prev frag.BitmapSlot
		for i, sl := range blk.slots {
			switch {
			case i == 0:
				if sl.Unit != 0 || sl.Page != 0 {
					t.Fatalf("fragment %d: first slot %+v does not open the block", id, sl)
				}
			case sl.Unit == prev.Unit:
				if sl.Page != prev.Page || sl.Pages != prev.Pages || sl.Off != prev.Off+prev.Len {
					t.Fatalf("fragment %d bitmap %d: slot %+v does not follow %+v in its unit", id, i, sl, prev)
				}
			default:
				if sl.Unit != prev.Unit+1 || sl.Page != prev.Page+prev.Pages {
					t.Fatalf("fragment %d bitmap %d: unit %+v not contiguous with %+v", id, i, sl, prev)
				}
			}
			if sl.Len >= ps {
				shared := i > 0 && prev.Unit == sl.Unit || i+1 < len(blk.slots) && blk.slots[i+1].Unit == sl.Unit
				if sl.Off != 0 || sl.Pages != (sl.Len+ps-1)/ps || shared {
					t.Fatalf("fragment %d bitmap %d: %d-byte payload not alone in its own whole pages: %+v", id, i, sl.Len, sl)
				}
			} else if sl.Pages != 1 || sl.Off+sl.Len > ps {
				t.Fatalf("fragment %d bitmap %d: sub-page payload straddles a page: %+v", id, i, sl)
			}
			prev = sl
		}
		page += blk.pages()
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != page*int64(ps) || bf.TotalPages() != page || int64(len(bf.sums)) != page {
		t.Fatalf("file is %d bytes; directory covers %d pages of %d, TotalPages %d, %d checksums",
			fi.Size(), page, ps, bf.TotalPages(), len(bf.sums))
	}
}

// interestingSizes are the payload sizes around the layout's one
// decision, the page boundary.
func interestingSizes(page int) []int {
	return []int{0, 1, page - 1, page, page + 1, 3*page + 5}
}

// TestBitmapLayoutProperty drives the layout with generated payload-size
// vectors — uniform at each interesting size, and mixed — of 1 to 80
// bitmaps per fragment, at both page sizes: the directory obeys the
// layout rule and every payload reads back byte for byte.
func TestBitmapLayoutProperty(t *testing.T) {
	for _, page := range []int{512, 4096} {
		rng := rand.New(rand.NewSource(int64(page)))
		sizes := interestingSizes(page)
		var rows []int32
		var payloads [][][]byte
		fragment := func(n int, size func() int) {
			ps := make([][]byte, n)
			for i := range ps {
				ps[i] = make([]byte, size())
				rng.Read(ps[i])
			}
			rows, payloads = append(rows, 0), append(payloads, ps)
		}
		for _, sz := range sizes {
			fragment(1+rng.Intn(80), func() int { return sz })
		}
		for i := 0; i < 30; i++ {
			fragment(1+rng.Intn(80), func() int {
				if rng.Intn(2) == 0 {
					return sizes[rng.Intn(len(sizes))]
				}
				return rng.Intn(2 * page)
			})
		}
		fragment(1, func() int { return 0 }) // a block that is one empty payload
		bf, path := rawBitmapFile(t, page, false, rows, payloads)
		checkLayout(t, bf, path, len(payloads))
		for id, ps := range payloads {
			for di, want := range ps {
				got, err := readPayloadOf(bf, int64(id), di)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("page %d fragment %d bitmap %d: %d-byte payload read back different", page, id, di, len(want))
				}
			}
		}
	}
}

// randomBits returns n bits, each set with probability p.
func randomBits(rng *rand.Rand, n int, p float64) *bitmap.Bitset {
	bs := bitmap.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			bs.Set(i)
		}
	}
	return bs
}

// bitsFile builds a raw bitmap file over the given bitsets (all bitsets
// of a fragment have the fragment's row count) on the materialised or
// the WAH path.
func bitsFile(t testing.TB, page int, compressed bool, frags [][]*bitmap.Bitset) (*BitmapFile, string) {
	rows := make([]int32, len(frags))
	payloads := make([][][]byte, len(frags))
	for id, bss := range frags {
		for _, bs := range bss {
			rows[id] = int32(bs.Len())
			var p []byte
			if compressed {
				p = encodeCompressed(bitmap.Compress(bs))
			} else {
				p = make([]byte, (bs.Len()+7)/8)
				packBits(bs, p)
			}
			payloads[id] = append(payloads[id], p)
		}
	}
	return rawBitmapFile(t, page, compressed, rows, payloads)
}

// readBitsOf decodes stored bitmap di of the fragment the way the
// executor does: through the file's decode seam.
func readBitsOf(bf *BitmapFile, id int64, di int) (*bitmap.Bitset, error) {
	p, err := readPayloadOf(bf, id, di)
	if err != nil {
		return nil, err
	}
	bs := bitmap.New(0)
	var wah bitmap.Compressed
	bf.decodeInto(bs, &wah, p, int(bf.blocks[id].rows))
	return bs, nil
}

// TestDecodeSeamPackedEqualsWAH: the decode seam yields the same Bitset
// — the bitmap that was stored — from the packed and from the WAH payload
// of one bitmap, at densities from empty to full and row counts whose
// last WAH group is full, one bit and one bit short. Destinations and the
// WAH scratch are reused across bitmaps the way a worker reuses them, so
// every decode starts from the previous one's stale words and length.
func TestDecodeSeamPackedEqualsWAH(t *testing.T) {
	packed, wahFile := &BitmapFile{}, &BitmapFile{compressed: true}
	rng := rand.New(rand.NewSource(24))
	fromPacked, fromWAH := bitmap.New(0), bitmap.New(0)
	var wah bitmap.Compressed
	for _, groups := range []int{100, 0, 1, 10} {
		for _, tail := range []int{0, 1, 62} {
			n := 63*groups + tail
			if n == 0 {
				continue
			}
			for _, density := range []float64{0, 0.01, 0.5, 1} {
				bs := randomBits(rng, n, density)
				p := make([]byte, (n+7)/8)
				packBits(bs, p)
				packed.decodeInto(fromPacked, &wah, p, n)
				wahFile.decodeInto(fromWAH, &wah, encodeCompressed(bitmap.Compress(bs)), n)
				if !fromPacked.Equal(bs) || !fromWAH.Equal(bs) {
					t.Fatalf("n=%d (n%%63=%d) density=%v: packed ok=%v, WAH ok=%v", n, tail, density, fromPacked.Equal(bs), fromWAH.Equal(bs))
				}
			}
		}
	}
}

// readBitmap is readBitsOf by descriptor, the way ReadCompressedFragment
// addresses a bitmap; it also returns the page count of the unit read.
func readBitmap(bf *BitmapFile, id int64, desc BitmapDesc) (*bitmap.Bitset, int, error) {
	di, ok := bf.ix.Pos(desc)
	if !ok {
		return nil, 0, fmt.Errorf("bitmap %+v not stored", desc)
	}
	bs, err := readBitsOf(bf, id, di)
	return bs, int(bf.blocks[id].slots[di].Pages), err
}

// TestBitmapLayoutRoundTripBothPaths: bitmaps whose payloads land on
// every side of the page boundary — row counts giving materialised
// payloads of each interesting size, densities giving WAH payloads from
// one word to several pages, mixed within a fragment — decode bit-exactly
// on the materialised and on the WAH path.
func TestBitmapLayoutRoundTripBothPaths(t *testing.T) {
	for _, page := range []int{512, 4096} {
		rng := rand.New(rand.NewSource(int64(7 * page)))
		var frags [][]*bitmap.Bitset
		for _, sz := range interestingSizes(page) {
			n := 8 * sz
			if n > 3 {
				n -= 3 // a last byte that is not full
			}
			bss := make([]*bitmap.Bitset, 1+rng.Intn(20))
			for i := range bss {
				// Densities from empty through incompressible to full: WAH
				// payloads of 8 bytes up to n/63 words side by side.
				bss[i] = randomBits(rng, n, []float64{0, 0.001, 0.02, 0.5, 1}[rng.Intn(5)])
			}
			frags = append(frags, bss)
		}
		for _, compressed := range []bool{false, true} {
			bf, path := bitsFile(t, page, compressed, frags)
			checkLayout(t, bf, path, len(frags))
			for id, bss := range frags {
				for di, want := range bss {
					got, err := readBitsOf(bf, int64(id), di)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("page %d compressed=%v fragment %d bitmap %d: bits differ", page, compressed, id, di)
					}
				}
			}
		}
	}
}

// FuzzBitmapFileRoundTrip builds a small bitmap file from the seed (page
// sizes, paths, row counts and densities on both sides of the page
// boundary), flips one byte anywhere in it, and reads every bitmap of
// every fragment: a bitmap stored in the unit holding the flipped page
// fails with a checksum fault — every tenant of a corrupt shared page,
// not just the one whose bytes were hit — and every other bitmap decodes
// to its original bits. Never different bits, never a panic.
func FuzzBitmapFileRoundTrip(f *testing.F) {
	f.Add(int64(1), uint32(0), byte(1))
	f.Add(int64(2), uint32(700), byte(0x80))
	f.Add(int64(3), uint32(1<<20), byte(0xff))
	f.Add(int64(-9), uint32(4095), byte(7))
	f.Fuzz(func(t *testing.T, seed int64, at uint32, flip byte) {
		rng := rand.New(rand.NewSource(seed))
		page := []int{512, 4096}[rng.Intn(2)]
		frags := make([][]*bitmap.Bitset, 1+rng.Intn(4))
		for id := range frags {
			rows := rng.Intn(10 * 8 * page / 4)
			frags[id] = make([]*bitmap.Bitset, 1+rng.Intn(12))
			for i := range frags[id] {
				frags[id][i] = randomBits(rng, rows, []float64{0, 0.01, 0.5}[rng.Intn(3)])
			}
		}
		bf, path := bitsFile(t, page, rng.Intn(2) == 0, frags)
		// One attempt per read and no breaker: a checksum failure must
		// surface as itself, at once.
		ds := NewDiskSet(1)
		ds.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, BreakerThreshold: 1 << 30})
		if err := bf.Decluster(alloc.Placement{Disks: 1}, ds); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 || flip == 0 {
			return
		}
		pos := int(at) % len(raw)
		raw[pos] ^= flip
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := int64(pos / page)
		for id, bss := range frags {
			blk := bf.blocks[int64(id)]
			for di, want := range bss {
				sl := blk.slots[di]
				first := blk.page + int64(sl.Page)
				corrupt := first <= bad && bad < first+int64(sl.Pages)
				got, err := readBitsOf(bf, int64(id), di)
				var fe *FaultError
				switch {
				case corrupt && !(errors.As(err, &fe) && fe.Kind == FaultChecksum):
					t.Fatalf("fragment %d bitmap %d shares the corrupt page %d and read %v", id, di, bad, err)
				case !corrupt && err != nil:
					t.Fatalf("fragment %d bitmap %d is not in the corrupt page %d: %v", id, di, bad, err)
				case !corrupt && !got.Equal(want):
					t.Fatalf("fragment %d bitmap %d: different bits", id, di)
				}
			}
		}
	})
}

// TestBuildBitmapsRemovesFileOnError: a build that fails half way leaves
// no truncated bitmaps.dat behind (a failed compaction must not leave a
// half-written file in an epoch directory).
func TestBuildBitmapsRemovesFileOnError(t *testing.T) {
	s := schema.Tiny()
	tab := data.MustGenerate(s, 21)
	dir := t.TempDir()
	store, err := Build(dir, tab, frag.MustParse(s, "time::month, product::group"))
	if err != nil {
		t.Fatal(err)
	}
	// Closing the fact file makes the first fragment scan of the bitmap
	// build fail, after bitmaps.dat was created.
	store.Close()
	if bf, err := BuildCompressedBitmaps(dir, store, frag.APB1Indexes(s)); err == nil {
		bf.Close()
		t.Fatal("bitmap build over a closed store succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, bitmapFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed build left bitmaps.dat behind (stat: %v)", err)
	}
}

// TestSubPageOneBitmapIOPerSubquery pins the I/O counts of the sub-page
// regime at the serving benchmark's shape — APB1Scaled(60) under
// time::month × product::group, compressed, four disks, thinned to a
// tenth of the rows: all 15 surviving bitmap fragments of a fact fragment
// fit one page, so every relevant fragment that needs any bitmap costs
// exactly one bitmap I/O of one page, whichever of them the query reads —
// staggered and co-located, with and without a buffer pool, alone and in
// a shared batch — and the per-disk access counts are the ones
// cost.EstimateResponse routes for the packed layout.
func TestSubPageOneBitmapIOPerSubquery(t *testing.T) {
	star := schema.APB1Scaled(60)
	star.Density /= 10
	tab := data.MustGenerate(star, 3)
	spec := frag.MustParse(star, "time::month, product::group")
	if bf := spec.BitmapFragmentPages(); bf >= 1 {
		t.Fatalf("bitmap fragments of %.2f pages: not the sub-page regime", bf)
	}
	icfg := frag.APB1Indexes(star)
	gen := workload.NewGenerator(star, 11)
	var queries []frag.Query
	for _, qt := range workload.All() {
		for i := 0; i < 3; i++ {
			q, err := gen.Next(qt)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	ctx := context.Background()
	params := cost.DefaultParams()
	for _, staggered := range []bool{true, false} {
		for _, pooled := range []bool{false, true} {
			name := fmt.Sprintf("staggered=%v/pool=%v", staggered, pooled)
			sched := exec.NewScheduler(4)
			pl := alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin, Staggered: staggered}
			cfg := BackendConfig{Compress: true, Placement: pl, PrefetchFact: params.FactPrefetch, Sched: sched}
			if pooled {
				cfg.Pool = NewBufPool(64 << 20)
			}
			be, err := BuildBackend(t.TempDir(), tab, spec, icfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := be.Bitmaps.TotalPages(); got != int64(be.Store.NumFragments()) {
				t.Errorf("%s: %d bitmap pages for %d fragments, want one unit each", name, got, be.Store.NumFragments())
			}
			solo := make([]IOStats, len(queries))
			routed := 0
			for i, q := range queries {
				plan, err := be.Bitmaps.ix.Plan(nil, q)
				if err != nil {
					t.Fatal(err)
				}
				var want int64 // relevant stored fragments, if the query needs any bitmap
				if len(plan) > 0 {
					for _, id := range spec.FragmentIDs(q) {
						if _, ok := be.Store.Loc(id); ok {
							want++
						}
					}
				}
				be.Disks.ResetStats()
				_, st, err := be.Exec.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{})
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = st
				if st.BitmapIOs != want || st.BitmapPages != want {
					t.Errorf("%s query %d: %d bitmap I/Os of %d pages, want %d of one page each", name, i, st.BitmapIOs, st.BitmapPages, want)
				}
				if lookups := st.PoolHits + st.PoolMisses; pooled && lookups != st.FactIOs+st.BitmapIOs || !pooled && lookups != 0 {
					t.Errorf("%s query %d: %d pool lookups for %d fact + %d unit reads", name, i, lookups, st.FactIOs, st.BitmapIOs)
				}
				est := cost.EstimateResponse(spec, icfg, q, params, cost.DiskParams{Placement: pl, PackedBitmaps: true})
				if est.Cost.BitmapIOs != st.BitmapIOs || est.Cost.BitmapPages != st.BitmapPages {
					t.Errorf("%s query %d: model %d bitmap I/Os of %d pages, executed %d of %d",
						name, i, est.Cost.BitmapIOs, est.Cost.BitmapPages, st.BitmapIOs, st.BitmapPages)
				}
				// The model spreads fact I/O uniformly; where every relevant
				// fragment did cost the modelled one fact read, the per-disk
				// counts must agree access for access.
				if !pooled && st.FactIOs == est.Cost.FactIOs && st.FactIOs == est.Cost.Fragments {
					routed++
					for d, ds := range be.Disks.Stats() {
						if float64(ds.IOs) != est.DiskIOs[d] {
							t.Errorf("%s query %d: disk %d served %d I/Os, model routed %.1f", name, i, d, ds.IOs, est.DiskIOs[d])
						}
					}
				}
			}
			if !pooled && routed < len(queries)/2 {
				t.Errorf("%s: per-disk routing checked on %d of %d queries only", name, routed, len(queries))
			}
			// Shared: per-slot logical counters are solo's, and the batch
			// reads no more units than its members would alone.
			for _, k := range []int{1, 2, 16} {
				batch := make([]frag.Query, k)
				var soloUnits int64
				for i := range batch {
					batch[i] = queries[(5*i)%len(queries)]
					soloUnits += solo[(5*i)%len(queries)].BitmapIOs
				}
				be.Disks.ResetStats()
				out, err := be.Exec.ExecuteSharedDeltas(ctx, batch, kernel.Deltas{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var saved, logical, units int64
				for i, r := range out {
					want := solo[(5*i)%len(queries)]
					got := r.St
					got.PoolHits, got.PoolMisses, got.PoolBytes = want.PoolHits, want.PoolMisses, want.PoolBytes // physical, not logical
					if r.Err != nil || got != want {
						t.Errorf("%s K=%d slot %d: stats %+v (err %v), solo %+v", name, k, i, r.St, r.Err, want)
					}
					saved += r.Shared.PhysReadsSaved
					logical += r.St.FactIOs + r.St.BitmapIOs
					units += r.St.BitmapIOs
				}
				if k == 1 && saved != 0 || units != soloUnits {
					t.Errorf("%s K=%d: %d unit reads (%d saved), solo %d", name, k, units, saved, soloUnits)
				}
				if !pooled {
					var phys int64
					for _, ds := range be.Disks.Stats() {
						phys += ds.IOs
					}
					if phys != logical-saved {
						t.Errorf("%s K=%d: %d physical reads, want the %d logical minus the %d saved", name, k, phys, logical, saved)
					}
				}
			}
			if err := be.Close(); err != nil {
				t.Fatal(err)
			}
			sched.Close()
		}
	}
}
