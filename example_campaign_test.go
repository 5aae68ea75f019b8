package repro

// Runnable godoc examples for the campaign orchestrator. Expansion is
// deterministic, so the grid shape and coordinates are exact.

import (
	"fmt"
	"log"
)

// A campaign crosses scenarios with option axes; Expand turns the
// declaration into the ordered, content-addressed run grid that
// RunCampaign executes (and `campaign run -dry-run` prints).
func ExampleNewCampaign() {
	c, err := NewCampaign("sweep").
		Note("two datasets under two measurement budgets").
		Scenario("GT", "BT").
		Iterations(10, 30).
		Seeds(1, 2).
		Spec()
	if err != nil {
		log.Fatal(err)
	}
	runs, err := c.Expand()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d runs\n", c.Name, len(runs))
	for _, r := range runs[:3] {
		fmt.Printf("%d %s iters=%d seed=%d\n", r.Index, r.Scenario, r.Iterations, r.Seed)
	}
	// Output:
	// sweep: 8 runs
	// 0 GT iters=10 seed=1
	// 1 GT iters=10 seed=2
	// 2 GT iters=30 seed=1
}
