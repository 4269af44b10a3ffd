package mdhf

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
)

// TestBadFactsRefused puts one leaf key of a generated table just past
// its dimension's domain, on every dimension and both backends: Open
// refuses the table with ErrBadFacts and writes nothing, where routing
// the key used to panic on the first Execute (product, time; channel in
// memory) or serve the row under no member at all (customer; channel on
// disk). NewClusterNode refuses it as a partition, and Append refuses
// the same row, as well as a row with a leaf too few. A table with
// ragged columns is refused too.
func TestBadFactsRefused(t *testing.T) {
	ctx := context.Background()
	const fragText = "time::month, product::group"
	good := MustGenerateData(APB1Scaled(60), 1)
	star := good.Star
	spec, err := ParseFragmentation(star, fragText)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadFacts) {
			t.Errorf("%s: error %v, want ErrBadFacts", what, err)
		}
	}
	for _, dim := range []string{"product", "customer", "channel", "time"} {
		for _, onDisk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ondisk=%v", dim, onDisk), func(t *testing.T) {
				d := star.DimIndex(dim)
				bad := *good
				bad.Dims = slices.Clone(good.Dims)
				bad.Dims[d] = slices.Clone(good.Dims[d])
				bad.Dims[d][len(bad.Dims[d])/2] = int32(star.Dims[d].LeafCard())

				dir := t.TempDir()
				var opts []Option
				if onDisk {
					opts = append(opts, WithOnDisk(dir))
				}
				w, err := Open(ctx, Config{Fragmentation: fragText, Table: &bad}, opts...)
				if err == nil {
					w.Close()
				}
				refused(t, "Open", err)
				if left, _ := os.ReadDir(dir); len(left) > 0 {
					t.Errorf("Open left %d entries in the store directory", len(left))
				}

				_, err = NewClusterNode(ClusterNodeConfig{Spec: spec, Indexes: APB1Indexes(star), Cluster: Placement{Disks: 1}}, &bad)
				refused(t, "NewClusterNode", err)

				w, err = Open(ctx, Config{Fragmentation: fragText, Table: good}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				leaves := []int32{0, 0, 0, 0}
				leaves[d] = int32(star.Dims[d].LeafCard())
				refused(t, "Append", w.Append(ctx, []FactRow{{Leaves: leaves}}))
				refused(t, "Append of three leaves", w.Append(ctx, []FactRow{{Leaves: leaves[:3]}}))
			})
		}
	}
	t.Run("ragged", func(t *testing.T) {
		bad := *good
		bad.Cost = bad.Cost[:len(bad.Cost)-1]
		_, err := Open(ctx, Config{Fragmentation: fragText, Table: &bad})
		refused(t, "Open", err)
		bad = *good
		bad.Dims = slices.Clone(good.Dims)
		bad.Dims[1] = bad.Dims[1][1:]
		_, err = Open(ctx, Config{Fragmentation: fragText, Table: &bad})
		refused(t, "Open", err)
		bad.Dims = bad.Dims[:3]
		_, err = Open(ctx, Config{Fragmentation: fragText, Table: &bad})
		refused(t, "Open", err)
	})
}
