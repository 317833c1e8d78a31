//go:build !race

// The race detector changes allocation counts, so the budgets only run
// without it.

package stream

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/perturb"
)

// allocBudgets pins what one Pipeline run costs in allocations. A budget
// moves down when a change wins; it moves up only with a stated reason.
var allocBudgets = []struct {
	name        string
	n, d, chunk int
	allocs      float64 // per run, measured at setting time
	setBy       string  // the change that set the row
}{
	{"4096x8/chunk256", 4096, 8, 256, 309, "dataset.New takes feature names from a table built once, not Sprintf per chunk"},
}

// TestPipelineAllocBudget runs the pipeline over each budget row's data and
// fails if a run allocates more than the row allows.
func TestPipelineAllocBudget(t *testing.T) {
	for _, row := range allocBudgets {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			data := mkData(t, rng, "budget", row.n, row.d, 0)
			target, err := perturb.NewRandom(rng, row.d, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			// A buffer deep enough for every chunk lets Run finish on the
			// test goroutine, and with GC off no cycle empties the fmt
			// buffer pool mid-measurement: the count is exact.
			depth := (row.n + row.chunk - 1) / row.chunk
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(20, func() {
				p, err := New(Config{Target: target, Rng: rng, ChunkSize: row.chunk, BufferDepth: depth})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(ctx, DatasetSource(data)); err != nil {
					t.Fatal(err)
				}
				for range p.Out() {
				}
			})
			t.Logf("%s: %.0f allocs per run (budget %.0f, set by %q)", row.name, got, row.allocs, row.setBy)
			if got > row.allocs {
				t.Errorf("%s: %.0f allocs per run, budget %.0f", row.name, got, row.allocs)
			}
		})
	}
}
