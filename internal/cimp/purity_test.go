package cimp_test

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gcmodel"
)

// TestPurityContract checks the contract the configuration table
// (memo.go) rests on: step functions treat their argument as read-only,
// and the step relation is a function of the configuration. On the first
// 20,000 breadth-first states of every preset, and of tiny under every
// ablation, enumerating a state's successors leaves each process's
// configuration — frame stack and data state — byte-equal to what it was,
// and a second enumeration, which finds the table warm, yields the same
// successor fingerprints in the same order.
func TestPurityContract(t *testing.T) {
	limit := 20_000
	if testing.Short() || raceEnabled {
		limit = 1_000
	}
	type test struct {
		name string
		cfg  core.ModelConfig
	}
	var tests []test
	for _, name := range core.PresetNames() {
		cfg, err := core.PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, test{name, cfg})
	}
	for name, cfg := range diffConfigs() {
		if name != "tiny" && name != "two-mutator" {
			tests = append(tests, test{name, cfg})
		}
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i].name < tests[j].name })

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, err := gcmodel.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			local := func(st gcmodel.SysState, dst [][]byte) [][]byte {
				for _, proc := range st.Procs {
					dst = append(dst, proc.Data.AppendFingerprint(m.Index.AppendStack(nil, proc.Stack)))
				}
				return dst
			}
			var before, after [][]byte
			var first, second []uint64
			seen := map[uint64]bool{m.FingerprintHash(m.Initial()): true}
			layer := []gcmodel.SysState{m.Initial()}
			for n := 0; len(layer) > 0 && n < limit; {
				var next []gcmodel.SysState
				for _, st := range layer[:min(len(layer), limit-n)] {
					n++
					before, first = local(st, before[:0]), first[:0]
					m.Successors(st, func(ns gcmodel.SysState, _ gcmodel.SysEvent) {
						h := m.FingerprintHash(ns)
						first = append(first, h)
						if !seen[h] {
							seen[h] = true
							next = append(next, ns)
						}
					})
					after = local(st, after[:0])
					for p := range before {
						if !bytes.Equal(before[p], after[p]) {
							t.Fatalf("state %d: enumerating its successors changed process %d's configuration", n, p)
						}
					}
					second = second[:0]
					m.Successors(st, func(ns gcmodel.SysState, _ gcmodel.SysEvent) {
						second = append(second, m.FingerprintHash(ns))
					})
					if !slices.Equal(first, second) {
						t.Fatalf("state %d: a second enumeration yields successors %x, the first %x", n, second, first)
					}
				}
				layer = next
			}
		})
	}
}
