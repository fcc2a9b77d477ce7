package metrics

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series. Labels
// distinguish series within a family (e.g. per-shard, per-tenant).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric family.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a level that moves both ways.
	KindGauge
	// KindHistogram is a latency distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// nameRE is the registry's naming lint: every family is ppm_-prefixed
// lowercase snake_case. Unit conventions are enforced on top of it:
// counters end in _total, histograms in _seconds.
var nameRE = regexp.MustCompile(`^ppm_[a-z0-9]+(_[a-z0-9]+)*$`)

// series is one instrument-backed (family, label set) time series.
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	order  []string // series keys in registration order
	series map[string]*series
}

// Registry is a concurrent collection of named metrics. Instruments are
// get-or-create: asking twice for the same name+labels returns the same
// Counter/Histogram, so packages can register at construction time without
// coordinating. Counters and gauges a layer already keeps come from a
// collector (Collect), which reports them from one snapshot per Gather.
// Registration and emission enforce the naming lint (ppm_ prefix,
// snake_case, unit suffixes, one kind per name, no duplicate series) and
// panic on violations — metric names are compile-time decisions and a bad
// one is a programming error, not a runtime condition.
//
// All methods are safe on a nil *Registry: instrument getters return live
// but unregistered instruments (recording is harmless, nothing is exported),
// so call sites can be wired unconditionally.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	order      []string // family names in registration order
	collectors []func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesKey renders labels canonically (sorted by key) for identity checks.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

func validateName(name string, kind Kind) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: name %q does not match %s", name, nameRE))
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("metrics: counter %q must end in _total", name))
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_seconds") {
			panic(fmt.Sprintf("metrics: histogram %q must end in _seconds", name))
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("metrics: gauge %q must not end in _total", name))
		}
	}
}

func validateLabels(labels []Label) {
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !labelKeyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: label key %q invalid", l.Key))
		}
		if seen[l.Key] {
			panic(fmt.Sprintf("metrics: duplicate label key %q", l.Key))
		}
		seen[l.Key] = true
	}
}

var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// getOrCreate finds or installs a counter or histogram series, enforcing
// family consistency.
func (r *Registry) getOrCreate(name, help string, kind Kind, labels []Label) *series {
	validateName(name, kind)
	validateLabels(labels)
	key := seriesKey(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered as %s, not %s", name, f.kind, kind))
	}
	if s := f.series[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	if kind == KindHistogram {
		s.h = new(Histogram)
	} else {
		s.c = new(Counter)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter returns the counter registered under name+labels, creating it on
// first use. Counter names must end in _total.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.getOrCreate(name, help, KindCounter, labels).c
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use. Histogram names must end in _seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	return r.getOrCreate(name, help, KindHistogram, labels).h
}

// Emit reports one counter or gauge series from inside a collector: the
// series' family name, help, kind, current value, and labels.
type Emit func(name, help string, kind Kind, v float64, labels ...Label)

// Collect registers fn as a collector. Gather calls fn once per gather,
// outside the registry lock, and fn reports each of its series through the
// Emit it is handed — typically every counter and gauge of one snapshot, so
// a scrape reads a layer's state once and its series agree with each other.
// Emitted series follow the naming lint; a series emitted twice in one
// gather (by one collector or two) panics, as does a family name an
// instrument already holds.
func (r *Registry) Collect(fn func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Series is one exported time series, as produced by Gather.
type Series struct {
	// Name is the family name.
	Name string
	// Kind is the family kind.
	Kind Kind
	// Help is the family help string.
	Help string
	// Labels are the series labels in registration order.
	Labels []Label
	// Value holds the current value for counters and gauges.
	Value float64
	// Hist holds the snapshot for histograms; nil otherwise.
	Hist *HistogramSnapshot
}

// Gather snapshots every instrument series (Instruments), then every
// collector's series, grouped by family in first-emitted order.
func (r *Registry) Gather() []Series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	collectors := r.collectors
	r.mu.RUnlock()
	return append(r.Instruments(), r.collect(collectors)...)
}

// Instruments snapshots every instrument series — the counters and
// histograms registered through Counter and Histogram — in registration
// order (families first-registered first, series within a family likewise),
// without running a collector.
func (r *Registry) Instruments() []Series {
	if r == nil {
		return nil
	}
	var out []Series
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			sr := Series{Name: f.name, Kind: f.kind, Help: f.help, Labels: s.labels}
			if s.h != nil {
				snap := s.h.Snapshot()
				sr.Hist = &snap
			} else {
				sr.Value = float64(s.c.Load())
			}
			out = append(out, sr)
		}
	}
	return out
}

// collect runs each collector once — outside the lock: collectors take
// their layers' own locks (ledger snapshots), and a scrape must never block
// registration — and groups the emitted series by family, so no family is
// split in the exposition.
func (r *Registry) collect(collectors []func(Emit)) []Series {
	var order []string
	byFamily := make(map[string][]Series)
	seen := make(map[string]bool)
	emit := func(name, help string, kind Kind, v float64, labels ...Label) {
		if kind == KindHistogram {
			panic(fmt.Sprintf("metrics: collector emitted histogram %q", name))
		}
		validateName(name, kind)
		validateLabels(labels)
		id := name + "{" + seriesKey(labels) + "}"
		if seen[id] {
			panic(fmt.Sprintf("metrics: duplicate series %s", id))
		}
		seen[id] = true
		// The suffix lint fixes a name's kind (only counters end in _total),
		// so a family's series cannot disagree on it.
		fam, ok := byFamily[name]
		if !ok {
			r.mu.RLock()
			f := r.families[name]
			r.mu.RUnlock()
			if f != nil {
				panic(fmt.Sprintf("metrics: %q emitted by a collector and registered as an instrument", name))
			}
			order = append(order, name)
		}
		byFamily[name] = append(fam, Series{Name: name, Kind: kind, Help: help, Labels: append([]Label(nil), labels...), Value: v})
	}
	for _, fn := range collectors {
		fn(emit)
	}
	var out []Series
	for _, name := range order {
		out = append(out, byFamily[name]...)
	}
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Histogram buckets are cumulative and
// only non-empty buckets plus +Inf are emitted, keeping 64-bucket histograms
// compact on the wire.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	var lastFamily string
	for _, s := range r.Gather() {
		if s.Name != lastFamily {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			lastFamily = s.Name
		}
		if s.Hist == nil {
			b.WriteString(s.Name)
			writeLabels(&b, s.Labels, "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
			continue
		}
		var cum int64
		for i, n := range s.Hist.Buckets {
			if n == 0 {
				continue
			}
			cum += n
			b.WriteString(s.Name)
			b.WriteString("_bucket")
			writeLabels(&b, s.Labels, formatFloat(BucketUpper(i).Seconds()))
			fmt.Fprintf(&b, " %d\n", cum)
		}
		b.WriteString(s.Name)
		b.WriteString("_bucket")
		writeLabels(&b, s.Labels, "+Inf")
		fmt.Fprintf(&b, " %d\n", s.Hist.Count)
		b.WriteString(s.Name)
		b.WriteString("_sum")
		writeLabels(&b, s.Labels, "")
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.Hist.Sum.Seconds()))
		b.WriteByte('\n')
		b.WriteString(s.Name)
		b.WriteString("_count")
		writeLabels(&b, s.Labels, "")
		fmt.Fprintf(&b, " %d\n", s.Hist.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func writeLabels(b *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
