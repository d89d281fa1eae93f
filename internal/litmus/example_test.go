package litmus_test

import (
	"fmt"

	"repro/internal/litmus"
)

// The E8 table: every test of the catalogue explored exhaustively under
// the x86-TSO machine and under the SC oracle. A row gives the witness
// outcome's verdict under TSO/SC, the distinct final outcomes under
// TSO/SC, and how many of those are witnesses. TestCatalogue holds each
// verdict to the published x86-TSO expectation.
func ExampleRunAll() {
	verdict := func(v litmus.Verdict) string {
		if v.Observed {
			return "OBSERVED"
		}
		return "forbidden"
	}
	vs := litmus.RunAll(litmus.All())
	for i := 0; i < len(vs); i += 2 {
		t, s := vs[i], vs[i+1]
		fmt.Printf("%-18s %-19s %5s %d/%d\n", t.Test.Name, verdict(t)+"/"+verdict(s),
			fmt.Sprintf("%d/%d", t.Outcomes, s.Outcomes), t.Witnesses, s.Witnesses)
	}
	// Output:
	// SB                 OBSERVED/forbidden    4/3 1/0
	// SB+mfence          forbidden/forbidden   3/3 0/0
	// SB+cas             forbidden/forbidden   3/3 0/0
	// SB+mfence-one-side OBSERVED/forbidden    4/3 1/0
	// MP                 forbidden/forbidden   3/3 0/0
	// MP+mfence          forbidden/forbidden   3/3 0/0
	// LB                 forbidden/forbidden   3/3 0/0
	// R                  OBSERVED/forbidden    4/3 1/0
	// R+cas              forbidden/forbidden   3/3 0/0
	// 2+2W               forbidden/forbidden   3/3 0/0
	// CoWR               forbidden/forbidden   1/1 0/0
	// CoWR+stale         OBSERVED/OBSERVED     2/2 1/1
	// IRIW               forbidden/forbidden 15/15 0/0
	// WRC                forbidden/forbidden   7/7 0/0
	// CAS-exclusion      forbidden/forbidden   2/2 0/0
	// XADD-serial        forbidden/forbidden   2/2 0/0
	// n4b                forbidden/forbidden   4/4 0/0
	// n5                 forbidden/forbidden   4/4 0/0
	// n6                 OBSERVED/forbidden    5/4 1/0
}
