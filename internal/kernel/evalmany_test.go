package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmap"
)

// evalSlot returns a fresh slot of the given shape: ungrouped,
// fragment-aligned with its constant key, or on the per-row GROUP BY
// fallback over two dimensions.
func evalSlot(shape int) Slot {
	switch shape % 3 {
	case 1:
		return Slot{Base: 7}
	case 2:
		return Slot{Base: 3, PerRow: []RowLevel{{Dim: 0, Div: 2, Weight: 1}, {Dim: 1, Div: 1, Weight: 100}},
			Groups: new(Grouped)}
	}
	return Slot{}
}

// TestEvalManyEqualsSolo: each of K slots folded by EvalMany equals the
// same slot folded alone by Fold,
// Rows included, and the row-by-row AddCols fold of the selected rows —
// for K = 1, 2 and 16, nil, empty, full, overlapping and identical masks,
// n % 64 of 0, 1 and 63, and every slot shape.
func TestEvalManyEqualsSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 129, 191, 256} {
		cols := testCols[int32, int64](rng, n, n)
		cols.Dims = [][]int32{make([]int32, n), make([]int32, n)}
		for i := 0; i < n; i++ {
			cols.Dims[0][i], cols.Dims[1][i] = int32(rng.Intn(9)), int32(rng.Intn(5))
		}
		for _, k := range []int{1, 2, 16} {
			for start := 0; start < 15; start++ {
				name := fmt.Sprintf("n=%d/K=%d/start=%d", n, k, start)
				masks := make([]*bitmap.Bitset, k)
				slots, want, rowWise := make([]*Slot, k), make([]Slot, k), make([]Slot, k)
				for j := range masks {
					switch kind := (start + j) % 5; {
					case kind == 0: // nil: every row
					case kind == 1:
						masks[j] = bitmap.New(n)
					case kind == 2:
						masks[j] = bitmap.New(n)
						masks[j].SetRange(0, n)
					case kind == 3 || j == 0: // random: overlapping its neighbours
						masks[j] = testMask(rng, n, rng.Intn(6), false)
					default: // identical to the previous slot's
						masks[j] = masks[j-1]
					}
					s := evalSlot(start/5 + j)
					slots[j], want[j], rowWise[j] = &s, evalSlot(start/5+j), evalSlot(start/5+j)
					Fold(&want[j], cols, 0, n, masks[j], 0)
					for i := 0; i < n; i++ {
						if masks[j] == nil || masks[j].Get(i) {
							AddCols(&rowWise[j], &cols, i)
						}
					}
				}
				EvalMany(slots, masks, n, cols, nil)
				for j, s := range slots {
					if !reflect.DeepEqual(*s, want[j]) || !reflect.DeepEqual(*s, rowWise[j]) {
						t.Errorf("%s slot %d: %+v, folded alone %+v, row by row %+v", name, j, *s, want[j], rowWise[j])
					}
				}
			}
		}
	}
}
