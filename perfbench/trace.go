package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the layer's public API.  Spans of one campaign share
// its id; probe spans (layer measurements outside any campaign) carry
// campaign 0.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, at exit.  A nil
// tracer records nothing, so untraced campaigns pay one nil check per
// span site.  Spans are opened and closed on the benchmark's goroutine
// only.
type tracer struct {
	epoch    time.Time
	campaign int
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Campaign: t.campaign,
		Name: name, StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.epoch))
	return time.Duration(s.EndNs - s.StartNs)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the spans' time minus the part of each span's interval
	// its child spans cover.
	SelfS float64 `json:"self_s"`
}

// selfTimes returns every span name's total and self time, largest self
// time first.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range t.spans {
		d := s.EndNs - s.StartNs
		self := d - covered(s, children[s.ID])
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(self) / 1e9
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of the parent's interval the union of the
// child intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// write stores the spans, their per-layer self times and the run's
// provenance as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	doc := struct {
		Provenance provenance  `json:"provenance"`
		Layers     []layerTime `json:"layers"`
		Spans      []span      `json:"spans"`
	}{prov, t.selfTimes(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
