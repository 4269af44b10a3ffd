package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mdhf "repro"
	"repro/internal/schema"
)

// The common baseline every workload shares: one schema, one
// fragmentation, one disk model.
const (
	scaleFactor   = 60
	fragmentation = "time::month, product::group"
	diskCount     = 4
	ioDelay       = 200 * time.Microsecond
	clientStreams = 2
	groupedOutOf  = 10 // of every 10 queries of a type ...
	groupedCount  = 3  // ... 3 get "group by product::group"
)

// The three query mixes. Every draw is stratified: each consecutive run
// of len(mix) queries holds every type exactly once, so two runs that
// complete a different number of queries still served the same mix.
var (
	mixAPB9 = []mdhf.QueryType{
		mdhf.OneMonth, mdhf.OneMonthOneGroup, mdhf.OneGroupOneQuarter,
		mdhf.OneGroupOneStore, mdhf.OneCodeOneMonth, mdhf.OneCodeOneQuarter,
		mdhf.OneQuarter, mdhf.OneStore, mdhf.OneCode,
	}
	mixFlash5 = []mdhf.QueryType{
		mdhf.OneStore, mdhf.OneCode, mdhf.OneQuarter, mdhf.OneMonth, mdhf.OneGroupOneStore,
	}
	mixConfined4 = []mdhf.QueryType{
		mdhf.OneMonth, mdhf.OneMonthOneGroup, mdhf.OneGroupOneQuarter, mdhf.OneQuarter,
	}
)

// env is the dataset and scratch space of one benchmark process.
type env struct {
	ctx   context.Context
	seed  int64
	star  *mdhf.Star
	spec  *mdhf.Fragmentation
	table *mdhf.FactTable
	cfg   mdhf.Config
	root  string // scratch directory for on-disk stores, inside the checkout
	procs int    // GOMAXPROCS, min(nproc, 4)
	dirs  int
}

func newEnv(ctx context.Context, seed int64, scratch string) (*env, error) {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	star := mdhf.APB1Scaled(scaleFactor)
	table, err := mdhf.GenerateData(star, seed)
	if err != nil {
		return nil, err
	}
	spec, err := mdhf.ParseFragmentation(star, fragmentation)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		ctx: ctx, seed: seed, star: star, spec: spec, table: table,
		cfg:  mdhf.Config{Star: star, Fragmentation: fragmentation, Table: table, Seed: seed},
		root: root, procs: procs,
	}, nil
}

func (e *env) close() { os.RemoveAll(e.root) }

// newDir returns a fresh directory path under the scratch root (not yet
// created; the warehouse creates it).
func (e *env) newDir(name string) string {
	e.dirs++
	return filepath.Join(e.root, fmt.Sprintf("%s-%d", name, e.dirs))
}

// op is one generated query with its expected answer.
type op struct {
	q    mdhf.Query
	text string
	want *mdhf.Result // filled by the oracle
}

// genQueries draws n queries of the mix from the seed: type order is a
// fresh permutation of the mix every len(mix) queries, members come from
// the repo's own query generator, and 3 of every 10 queries of a type are
// grouped by product::group.
func genQueries(star *mdhf.Star, seed int64, mix []mdhf.QueryType, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := mdhf.NewQueryGenerator(star, seed)
	pd := star.DimIndex(schema.DimProduct)
	groupBy := []mdhf.LevelRef{{Dim: pd, Level: star.Dims[pd].LevelIndex(schema.LvlGroup)}}
	decks := make([][]bool, len(mix)) // per type: remaining grouped flags
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, ti := range rng.Perm(len(mix)) {
			if len(ops) == n {
				break
			}
			if len(decks[ti]) == 0 {
				deck := make([]bool, groupedOutOf)
				for i := 0; i < groupedCount; i++ {
					deck[i] = true
				}
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				decks[ti] = deck
			}
			grouped := decks[ti][0]
			decks[ti] = decks[ti][1:]
			q, err := gen.Next(mix[ti])
			if err != nil {
				return nil, err
			}
			if grouped {
				q.GroupBy = groupBy
			}
			ops = append(ops, op{q: q, text: mdhf.FormatQuery(star, q)})
		}
	}
	return ops, nil
}

// genBatches draws n append batches of `rows` rows each: the time leaf is
// the newest month (what a warehouse load looks like), every other
// dimension uniform.
func genBatches(star *mdhf.Star, seed int64, n, rows int) [][]mdhf.FactRow {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	td := star.DimIndex(schema.DimTime)
	newest := int32(star.Dims[td].LeafCard() - 1)
	out := make([][]mdhf.FactRow, n)
	for b := range out {
		batch := make([]mdhf.FactRow, rows)
		for r := range batch {
			leaves := make([]int32, len(star.Dims))
			for d := range leaves {
				leaves[d] = int32(rng.Intn(star.Dims[d].LeafCard()))
			}
			leaves[td] = newest
			units := int64(1 + rng.Intn(100))
			price := int64(1 + rng.Intn(50))
			batch[r] = mdhf.FactRow{Leaves: leaves, UnitsSold: units, DollarSales: units * price, Cost: units * price * 3 / 4}
		}
		out[b] = batch
	}
	return out
}
