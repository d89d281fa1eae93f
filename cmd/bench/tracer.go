package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// A tracer records spans around the calls the benchmark makes into each
// layer's public functions. It belongs to one goroutine; workloads with
// several goroutines give each its own and merge them when writing.
//
// Spans nest by push/pop, so a span's parent is whatever was open when it
// began, and a span's self time is its duration minus its children's.
// Aggregates are kept for every span; the span records themselves are
// kept only while keep is set (every job and cycle, a 1-in-64 sample of
// expanded states and mutator ops), which bounds the trace's memory.
type tracer struct {
	epoch time.Time
	// idBase separates the id spaces of tracers that will be merged.
	idBase int64
	nextID int64
	kinds  []*spanKind
	stack  []openSpan
	keep   bool
	spans  []spanRec
}

// spanKind is the per-name aggregate.
type spanKind struct {
	name  string
	count int64
	total time.Duration
	self  time.Duration
	// durs keeps every duration of this kind when samples is set, for
	// percentiles.
	samples bool
	durs    []time.Duration
}

type openSpan struct {
	kind     *spanKind
	id       int64
	start    time.Duration
	children time.Duration
}

// spanRec is one line of trace.ndjson.
type spanRec struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = root
	Root    int64  `json:"root"`   // the expanded state / job / cycle it belongs to
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer(epoch time.Time, idBase int64) *tracer {
	return &tracer{epoch: epoch, idBase: idBase}
}

// kind registers a span name; resolve it once outside the hot loop.
func (t *tracer) kind(name string) *spanKind {
	if t == nil {
		return nil
	}
	for _, k := range t.kinds {
		if k.name == name {
			return k
		}
	}
	k := &spanKind{name: name}
	t.kinds = append(t.kinds, k)
	return k
}

// push opens a span. A nil tracer makes push and pop no-ops, so the same
// loop runs traced and untraced.
func (t *tracer) push(k *spanKind) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{kind: k, id: t.idBase + t.nextID, start: time.Since(t.epoch)})
}

// pop closes the innermost span and returns its duration.
func (t *tracer) pop() time.Duration {
	if t == nil {
		return 0
	}
	end := time.Since(t.epoch)
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - top.start
	k := top.kind
	k.count++
	k.total += d
	k.self += d - top.children
	if k.samples {
		k.durs = append(k.durs, d)
	}
	var parent, root int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
		parent, root = t.stack[n-1].id, t.stack[0].id
	} else {
		root = top.id
	}
	if t.keep {
		t.spans = append(t.spans, spanRec{k.name, top.id, parent, root, int64(top.start), int64(end)})
	}
	return d
}

// perCall is a kind's mean duration in nanoseconds (0 if it never ran).
func (k *spanKind) perCall() float64 {
	if k == nil || k.count == 0 {
		return 0
	}
	return float64(k.total) / float64(k.count)
}

// aggRec is one aggregate line of trace.ndjson.
type aggRec struct {
	Agg     string `json:"agg"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// mergeKinds sums the aggregates of several tracers by name.
func mergeKinds(ts ...*tracer) []aggRec {
	byName := map[string]*aggRec{}
	var names []string
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, k := range t.kinds {
			a := byName[k.name]
			if a == nil {
				a = &aggRec{Agg: k.name}
				byName[k.name] = a
				names = append(names, k.name)
			}
			a.Count += k.count
			a.TotalNs += int64(k.total)
			a.SelfNs += int64(k.self)
		}
	}
	sort.Strings(names)
	out := make([]aggRec, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// writeTrace writes the kept spans (by start time) and then the per-name
// aggregates, one JSON object per line.
func writeTrace(path string, ts ...*tracer) (err error) {
	var spans []spanRec
	for _, t := range ts {
		if t != nil {
			spans = append(spans, t.spans...)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	for _, a := range mergeKinds(ts...) {
		if err := enc.Encode(a); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// selfTotal is the summed self time of all span names: the traced loop's
// wall, if the spans cover it.
func selfTotal(aggs []aggRec) time.Duration {
	var sum int64
	for _, a := range aggs {
		sum += a.SelfNs
	}
	return time.Duration(sum)
}

// selfShares renders each span name's share of the summed self time, the
// -trace summary's "where did the loop's wall go" table.
func selfShares(aggs []aggRec) []string {
	sum := int64(selfTotal(aggs))
	if sum == 0 {
		return nil
	}
	aggs = append([]aggRec(nil), aggs...)
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].SelfNs > aggs[j].SelfNs })
	out := make([]string, 0, len(aggs))
	for _, a := range aggs {
		out = append(out, fmt.Sprintf("self-time %-28s %5.1f%%  (%d calls, %.3fs)",
			a.Agg, 100*float64(a.SelfNs)/float64(sum), a.Count, float64(a.SelfNs)/1e9))
	}
	return out
}
