package agg

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// Query is a compiled aggregate query: the selection rules choosing
// the records (compiled to the usual pruning envelopes) and the
// aggregate specification shaping the answer.
type Query struct {
	Sel  *query.Query
	Spec *Spec
}

// Compile parses a full aggregate query text: selection-rule lines in
// the Figure 3.3–3.4 syntax plus exactly one aggregate line ("agg ..."
// or "top ..."), in any order. Text with no aggregate line is an
// error here — plain selection queries belong to the query package.
func Compile(text string) (*Query, error) {
	var ruleLines, aggLines []string
	for _, line := range strings.Split(text, "\n") {
		if IsAggLine(line) {
			aggLines = append(aggLines, strings.TrimSpace(line))
		} else {
			ruleLines = append(ruleLines, line)
		}
	}
	if len(aggLines) == 0 {
		return nil, fmt.Errorf("%w: no aggregate line", ErrSpec)
	}
	if len(aggLines) > 1 {
		return nil, fmt.Errorf("%w: %d aggregate lines, want one", ErrSpec, len(aggLines))
	}
	spec, err := ParseSpec(aggLines[0])
	if err != nil {
		return nil, err
	}
	sel, err := query.Compile(strings.Join(ruleLines, "\n"))
	if err != nil {
		return nil, err
	}
	return &Query{Sel: sel, Spec: spec}, nil
}

// Options tunes one Eval.
type Options struct {
	// Workers sets segment-fold parallelism; 0 or 1 is sequential.
	// Results are identical either way: each worker folds into its own
	// partial and the partials Merge, which is order-independent.
	Workers int
	// Obs, when set, receives agg.runs and the agg.merge_ns latency of
	// the final partial merge.
	Obs *obs.Registry
}

// Eval runs an aggregate query against a store snapshot: admitted
// segments (footer pruning applied) are scanned where they live and
// folded into one bounded partial aggregate — the push-down half of a
// distributed aggregation. The caller ships the partial, not the
// records.
func Eval(rd *store.Reader, aq *Query, opt Options) (*Partial, query.Stats, error) {
	if opt.Obs != nil {
		opt.Obs.Counter("agg.runs").Inc()
	}
	segs, stats := query.Admitted(rd, aq.Sel)
	if opt.Workers > 1 && len(segs) > 1 {
		return evalParallel(segs, aq, opt, stats)
	}
	p := NewPartial(aq.Spec)
	var line trace.Line
	for _, rs := range segs {
		if err := foldSegment(p, rs, aq, &stats, &line); err != nil {
			return nil, stats, err
		}
	}
	return p, stats, nil
}

// evalParallel folds admitted segments on a worker pool, one partial
// per worker, merged at the end — the same shape the controller's
// cross-machine gather has, exercised inside one machine.
func evalParallel(segs []*store.ReaderSegment, aq *Query, opt Options, stats query.Stats) (*Partial, query.Stats, error) {
	workers := opt.Workers
	if workers > len(segs) {
		workers = len(segs)
	}
	parts := make([]*Partial, workers)
	statsv := make([]query.Stats, workers)
	errs := make([]error, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := NewPartial(aq.Spec)
			parts[w] = p
			var line trace.Line
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(segs) {
					return
				}
				if err := foldSegment(p, segs[i], aq, &statsv[w], &line); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	var span obs.Span
	if opt.Obs != nil {
		span = obs.StartSpan(opt.Obs.Histogram("agg.merge_ns"))
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			return nil, stats, err
		}
	}
	span.End()
	for _, s := range statsv {
		stats.Scanned += s.Scanned
		stats.Blocks += s.Blocks
		stats.BlocksPruned += s.BlocksPruned
		stats.Records += s.Records
		stats.Matched += s.Matched
		stats.BadLines += s.BadLines
	}
	return merged, stats, nil
}

// foldSegment scans one segment and folds its matching records into
// the partial. Rules, group keys and the folded field all read the
// record in place through line, so no record is materialized. A torn
// unsealed tail is tolerated, as everywhere else; corruption of a
// sealed segment is fatal.
func foldSegment(p *Partial, rs *store.ReaderSegment, aq *Query, stats *query.Stats, line *trace.Line) error {
	stats.Scanned++
	sketch := aq.Spec.Fn.NeedsSketch()
	maxGroups := aq.Spec.maxGroups()
	admit := aq.Sel.Admits
	if aq.Sel.NoPrune {
		admit = nil
	}
	d := store.AcquireDecoder()
	st, err := rs.Scan(d, admit, func(m store.Meta, b []byte) {
		if line.Parse(b) != nil {
			stats.BadLines++
			return
		}
		if ok, _ := aq.Sel.Match(line); !ok {
			return
		}
		stats.Matched++
		p.Records++
		p.noteTime(uint64(line.CPUTime))
		key, ok := aq.Spec.keyOf(line)
		if !ok {
			p.Skipped++
			return
		}
		v := uint64(1)
		if aq.Spec.Fn.NeedsField() {
			fv, ok := line.Field(aq.Spec.Field)
			if !ok {
				p.Skipped++
				return
			}
			v = fv
		}
		if !p.fold(key, v, sketch, maxGroups) {
			p.Dropped++
		}
	})
	store.ReleaseDecoder(d)
	stats.Records += st.Records
	stats.Blocks += st.Blocks
	stats.BlocksPruned += st.BlocksPruned
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		return err
	}
	return nil
}

// keyOf computes the record's group key, false when a group-by field
// is absent from the record. Fields resolve as in rule evaluation,
// header fields first.
func (s *Spec) keyOf(l *trace.Line) (GroupKey, bool) {
	var key GroupKey
	if s.WindowMS > 0 {
		t := uint64(l.CPUTime)
		key.Window = t - t%uint64(s.WindowMS)
	}
	for i, f := range s.By {
		v, ok := l.Field(f)
		if !ok {
			return key, false
		}
		key.Vals[i] = v
	}
	return key, true
}
