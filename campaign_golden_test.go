package ticktock

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/monolithic"
)

// TestCampaignOutputBytesPinned pins the sha256 of the campaign outputs
// every report, table and runpack result is built from. How campaigns
// are run (engine, worker pool, kernel construction) may change; these
// bytes may not, and a change that alters one fails here rather than in
// a diff of a CLI run.
func TestCampaignOutputBytesPinned(t *testing.T) {
	rows := func(cfg difftest.Config) string {
		rs, _, err := difftest.RunAll(cfg, campaign.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return difftest.Table(rs)
	}
	rep := faultinject.Run(faultinject.Config{Seed: 7, N: 20})
	for _, tc := range []struct {
		name, out, want string
	}{
		{"faultcamp -seed 7 -n 20 report", rep.Text(),
			"d53dec97c4a263ca24a7d825b067ba1381bd7bebdfa546275edd00befcc7e3e2"},
		{"faultcamp -seed 7 -n 20 rows", difftest.Table(rep.Rows()),
			"6a61c925e25d2e03ffcb180a2e18f8481986bf7151b906eb553af40a6a2806f0"},
		{"difftest table", rows(difftest.Config{}),
			"28adfe752b44ac9b439d2870d780c5ba00f205ed36351549d6f76f6944909b6d"},
		{"difftest -bug grant-overlap table", rows(difftest.Config{Bugs: monolithic.BugSet{GrantOverlap: true}}),
			"28adfe752b44ac9b439d2870d780c5ba00f205ed36351549d6f76f6944909b6d"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tc.out))); got != tc.want {
			t.Errorf("%s: sha256 %s, pinned %s; output:\n%s", tc.name, got, tc.want, tc.out)
		}
	}
}
