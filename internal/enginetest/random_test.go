package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/workload"
)

// TestRandomizedDifferential is the property test: on seeded random
// databases (including empty relations) and random selections, the
// engine under every strategy combination and under both planners must
// reproduce the baseline exactly. The seed range is fixed, so failures
// are deterministic and the failing seed reproduces the case.
func TestRandomizedDifferential(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(9000); seed < 9000+seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 6)
		sel := workload.RandomSelection(rng)
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: check: %v", seed, err)
		}
		RunSelection(t, fmt.Sprintf("seed %d: %s", seed, checked), db, checked, info)
	}
}
