package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer was created; Parent is 0 for a root.
// Spans of one closed-loop round (a gateway session, a capture pass, a
// trace replay) share a Trace ID.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is the handle Begin returns; the zero value (from a nil
// tracer) makes End a no-op, so call sites never branch on tracing.
type spanRef struct {
	t  *Tracer
	id uint64
}

// openSpan is a span that has begun but not ended, plus the intervals its
// ended children covered so far.
type openSpan struct {
	Span
	children [][2]int64
}

// Tracer keeps spans in memory and aggregates self time per span name as
// spans end. A nil *Tracer records nothing: untraced runs pay one nil
// check per call site.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	next   uint64
	open   map[uint64]*openSpan
	totals map[string]*layerRow
	kept   []Span
	keep   int
	lost   int
}

// newTracer returns a tracer that retains at most keep ended spans for the
// JSON dump; aggregation covers every span regardless.
func newTracer(keep int) *Tracer {
	return &Tracer{
		t0:     time.Now(),
		open:   make(map[uint64]*openSpan),
		totals: make(map[string]*layerRow),
		keep:   keep,
	}
}

// Begin opens a span under parent (the zero spanRef for a root).
func (t *Tracer) Begin(name string, parent spanRef, trace uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.open[id] = &openSpan{Span: Span{ID: id, Parent: parent.id, Trace: trace, Name: name, Start: now}}
	return spanRef{t: t, id: id}
}

// End closes the span: its self time is its duration minus the union of
// the intervals its children covered, and its own interval is credited
// to its parent if the parent is still open.
func (r spanRef) End() {
	t := r.t
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[r.id]
	if !ok {
		return
	}
	delete(t.open, r.id)
	s.End = now
	agg := t.totals[s.Name]
	if agg == nil {
		agg = &layerRow{Name: s.Name}
		t.totals[s.Name] = agg
	}
	agg.Count++
	agg.Total += time.Duration(s.End - s.Start)
	agg.Self += time.Duration(selfTime(s.Start, s.End, s.children))
	if p, ok := t.open[s.Parent]; ok {
		p.children = append(p.children, [2]int64{s.Start, s.End})
	}
	if len(t.kept) < t.keep {
		t.kept = append(t.kept, s.Span)
	} else {
		t.lost++
	}
}

// selfTime is end-start minus the length of the union of the child
// intervals clipped to [start, end]. Children of one parent may overlap
// when they ran on different goroutines; the union counts shared time
// once.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
			continue
		}
		curHi = max(curHi, c[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

// layerRow aggregates every ended span of one name: one line of the
// per-layer self-time table.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// Total returns the aggregate of one span name (zero if never seen).
func (t *Tracer) Total(name string) layerRow {
	if t == nil {
		return layerRow{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if agg := t.totals[name]; agg != nil {
		return *agg
	}
	return layerRow{}
}

// Rows returns the aggregated span names sorted by descending self time.
func (t *Tracer) Rows() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := make([]layerRow, 0, len(t.totals))
	for _, agg := range t.totals {
		rows = append(rows, *agg)
	}
	sortRows(rows)
	return rows
}

func sortRows(rows []layerRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
}

// writeTable prints the per-layer self-time table for one workload.
func writeTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer self time (%s): span time minus time covered by child spans\n", workload)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s %12s\n", "layer", "count", "total_ms", "self_ms", "self_us/call")
	for _, r := range rows {
		per := 0.0
		if r.Count > 0 {
			per = float64(r.Self) / 1e3 / float64(r.Count)
		}
		fmt.Fprintf(w, "  %-28s %9d %12.3f %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, per)
	}
}

// WriteJSON dumps the retained spans, with the environment stamp, to path.
func (t *Tracer) WriteJSON(path string, stamp envStamp) error {
	t.mu.Lock()
	doc := struct {
		Env   envStamp `json:"env"`
		Spans []Span   `json:"spans"`
		Lost  int      `json:"spans_not_retained"`
	}{stamp, t.kept, t.lost}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
