package server

import (
	"fmt"

	"repro/internal/core"
)

// CorpusCell is one cell of the verification corpus: a preset, one
// ablation variant, and a memory model, as the concrete JobSpec the
// engine would run for it. Cells with a matching job also carry that
// job's state (and verdict, once settled).
type CorpusCell struct {
	Preset    string       `json:"preset"`
	Ablations string       `json:"ablations"` // "" = clean configuration
	Memory    string       `json:"memory"`    // "tso" | "sc"
	Spec      core.JobSpec `json:"spec"`

	Fingerprint string        `json:"fingerprint"`
	JobID       string        `json:"job_id,omitempty"`
	State       core.JobState `json:"state,omitempty"`
	Verdict     string        `json:"verdict,omitempty"`
	Cached      bool          `json:"cached,omitempty"`
}

// CorpusPriority orders corpus cells behind every interactive
// submission (which default to priority 0).
const CorpusPriority = 100

// corpusAblations is the ablation axis of the matrix: the clean
// configuration plus the headline barrier/fence deletions the paper's
// proof says are load-bearing.
var corpusAblations = []core.Ablations{
	{},
	{NoDeletionBarrier: true},
	{NoInsertionBarrier: true},
	{AllocWhite: true},
	{UnlockedMark: true},
	{NoHSFence: true},
}

// corpusCellsLocked enumerates (and memoizes) the preset x ablation x
// {TSO, SC} matrix. Callers hold e.mu.
func (e *Engine) corpusCellsLocked() ([]CorpusCell, error) {
	if e.corpusCells != nil {
		return e.corpusCells, nil
	}
	presets := e.opt.CorpusPresets
	if presets == nil {
		presets = core.PresetNames()
	}
	var cells []CorpusCell
	for _, preset := range presets {
		if _, err := core.PresetConfig(preset); err != nil {
			return nil, err
		}
		for _, abl := range corpusAblations {
			for _, mem := range []string{"tso", "sc"} {
				a := abl
				a.SCMemory = mem == "sc"
				spec := core.JobSpec{
					Preset:    preset,
					Ablations: a,
					Options:   core.JobOptions{MaxStates: e.opt.CorpusMaxStates},
				}
				spec = e.normalize(spec)
				fp, _, err := spec.Fingerprint()
				if err != nil {
					return nil, err
				}
				cells = append(cells, CorpusCell{
					Preset:      preset,
					Ablations:   abl.String(),
					Memory:      mem,
					Spec:        spec,
					Fingerprint: fmt.Sprintf("%016x", fp),
				})
			}
		}
	}
	e.corpusCells = cells
	return cells, nil
}

// Corpus returns the matrix with each cell annotated by the most
// recent job (by id) carrying its fingerprint: its state, and its
// verdict once settled.
func (e *Engine) Corpus() ([]CorpusCell, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cells, err := e.corpusCellsLocked()
	if err != nil {
		return nil, err
	}
	byFP := make(map[string]*job)
	for _, j := range e.jobs {
		key := fmt.Sprintf("%016x", j.fp)
		if prev, ok := byFP[key]; !ok || j.id > prev.id {
			byFP[key] = j
		}
	}
	out := make([]CorpusCell, len(cells))
	for i, c := range cells {
		if j, ok := byFP[c.Fingerprint]; ok {
			c.JobID = j.id
			c.State = j.state
			c.Cached = j.cached
			if j.verdict != nil {
				c.Verdict = j.verdict.Verdict
			}
		}
		out[i] = c
	}
	return out, nil
}

// EnqueueCorpus submits every corpus cell as a background job at
// CorpusPriority and reports how many were enqueued fresh (cells
// already cached or in flight coalesce and do not count).
func (e *Engine) EnqueueCorpus() (int, error) {
	e.mu.Lock()
	cells, err := e.corpusCellsLocked()
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	fresh := 0
	for _, c := range cells {
		_, enqueued, err := e.submit(c.Spec, CorpusPriority, true)
		if err != nil {
			return fresh, err
		}
		if enqueued {
			fresh++
		}
	}
	return fresh, nil
}
