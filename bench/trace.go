package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans are named
// "<layer>.<what>", where the layer is the module the call enters
// ("bench" is the harness itself). Parent indexes the enclosing span,
// or is -1; Iter is the operation the span belongs to, or -1 for
// set-up and probes outside any operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	// Probe marks work only the traced pass does (an extra serial check
	// for the parallel ratio, a lexer-only scan), so that the rest of a
	// traced operation can be compared with the untraced one.
	Probe bool `json:"probe,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

const (
	// opSpan is the span of one whole operation.
	opSpan = "bench.op"
	// timedSpan is a section of an operation that counts toward its
	// measured time; what lies between such sections is the harness's
	// own work (hosting a fleet, checking outputs).
	timedSpan = "bench.timed"
)

// tracer records spans in memory; flush writes them out when the run
// ends. The harness calls into the layers from one goroutine, so the
// open spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), iter: -1} }

func (t *tracer) run(name string, probe bool, fn func()) time.Duration {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Iter: t.iter, Probe: probe})
	t.stack = append(t.stack, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	fn()
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[i].dur()
}

// do times fn as a span that the untraced operation also executes.
func (t *tracer) do(name string, fn func()) time.Duration { return t.run(name, false, fn) }

// probe times fn as a span only the traced pass executes.
func (t *tracer) probe(name string, fn func()) time.Duration { return t.run(name, true, fn) }

// op times one whole operation; the spans fn opens belong to it.
func (t *tracer) op(i int, fn func()) {
	t.iter = i
	t.do(opSpan, fn)
	t.iter = -1
}

// selfTimes returns each span's duration minus its direct children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// opAccount is where one operation's time went.
type opAccount struct {
	total time.Duration
	// core is what the untraced operation measures too: the timed
	// sections less the probes inside them.
	core time.Duration
	// layers sums the self time of the operation's spans by layer,
	// probes left out.
	layers map[string]time.Duration
	// unattributed is the operation span's own self time: what no span
	// inside it covers.
	unattributed time.Duration
}

// accounts sums self times per operation and layer.
func (t *tracer) accounts() []opAccount {
	self := t.selfTimes()
	var out []opAccount
	// inProbe[i], inTimed[i]: span i is, or lies inside, a probe or a
	// timed section.
	inProbe := make([]bool, len(t.spans))
	inTimed := make([]bool, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Iter < 0 {
			continue
		}
		if s.Name == opSpan {
			// An operation's span precedes the spans inside it.
			out = append(out, opAccount{total: s.dur(), unattributed: self[i], layers: map[string]time.Duration{}})
			continue
		}
		a := &out[len(out)-1]
		inProbe[i] = s.Probe || inProbe[s.Parent]
		inTimed[i] = s.Name == timedSpan || inTimed[s.Parent]
		switch {
		case s.Name == timedSpan:
			a.core += s.dur()
		case s.Probe && inTimed[i] && !inProbe[s.Parent]:
			a.core -= s.dur()
		}
		if !inProbe[i] {
			a.layers[s.layer()] += self[i]
		}
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur()))
		}
	}
	return out
}

func (t *tracer) flush(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
