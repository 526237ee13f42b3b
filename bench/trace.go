package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

var procStart = time.Now()

// nanotime is the process's monotonic clock: every timestamp the harness
// records is nanoseconds since it started.
func nanotime() int64 { return int64(time.Since(procStart)) }

type spanKind uint8

const (
	spanStep spanKind = iota
	spanPost
	spanQueueWait
	spanRound
	spanSend
	spanRecvWait
)

// spanNames gives each kind its name and the kind of the span that caused
// it: a budget step is the request, and every span carries its id.
var spanNames = [...]struct{ name, parent string }{
	spanStep:      {"step", ""},
	spanPost:      {"ctlplane.post", "step"},
	spanQueueWait: {"ctlplane.queue_wait", "step"},
	spanRound:     {"agent.round", "step"},
	spanSend:      {"transport.send", "agent.round"},
	spanRecvWait:  {"transport.recv_wait", "agent.round"},
}

type span struct {
	Kind       spanKind
	Node       int // -1 for the operator's own spans
	Step       int
	Round      int
	Start, End int64
}

// fullSpanSteps is how many budget steps keep every span; later steps keep
// only the per-step sums in stepSummary.
const fullSpanSteps = 8

// spanBuf is one goroutine's preallocated span store. A nil buffer drops
// silently, which is how spans are switched off.
type spanBuf struct {
	spans   []span
	dropped int
}

func (b *spanBuf) add(s span) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// stepSummary is the per-step record every traced budget step leaves, with
// the layer sums taken over every node between the step's first write and
// its close.
type stepSummary struct {
	Step        int     `json:"step"`
	Kind        string  `json:"kind"`
	StartNs     int64   `json:"start_ns"`
	CompliantMs float64 `json:"compliant_ms"`
	T99Ms       float64 `json:"t99_ms"`
	RoundsTo99  float64 `json:"rounds_to_99"`
	FanoutMs    float64 `json:"fanout_ms"`
	QueueWaitUs float64 `json:"queue_wait_us_mean"`
	RoundUs     float64 `json:"agent_round_us_sum"`
	SendUs      float64 `json:"transport_send_us_sum"`
	RecvWaitUs  float64 `json:"transport_recv_wait_us_sum"`
	SelfUs      float64 `json:"agent_self_us_sum"`
}

// tracer holds everything a traced run keeps in memory until it ends.
type tracer struct {
	bufs      []*spanBuf
	steps     []stepSummary
	fullSteps int  // steps given full spans so far
	spans     bool // the workload has budget steps to record spans for
}

// spanBudget is how many spans a cluster's nodes may hold between them;
// what does not fit is counted in trace.dropped_spans.
const spanBudget = 400_000

func (t *tracer) newBuf(capacity int) *spanBuf {
	b := &spanBuf{spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// nodeBuf returns the span store of one of a cluster's n nodes. Once the
// run has had its steps with full spans, later clusters get none.
func (t *tracer) nodeBuf(n int) *spanBuf {
	if !t.spans || t.fullSteps >= fullSpanSteps {
		return nil
	}
	return t.newBuf(spanBudget / n)
}

// nextStep numbers a traced budget step across the run's epochs and says
// whether it is one of the first that keep every span.
func (t *tracer) nextStep() (id int, full bool) {
	t.fullSteps++
	return t.fullSteps, t.fullSteps <= fullSpanSteps
}

func (t *tracer) counts() (spans, dropped int) {
	for _, b := range t.bufs {
		spans += len(b.spans)
		dropped += b.dropped
	}
	return spans, dropped
}

// write stores the trace as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n, dropped := t.counts()
	type kindJSON struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
	}
	out := struct {
		Workload   string        `json:"workload"`
		Dropped    int           `json:"dropped_spans"`
		Kinds      []kindJSON    `json:"span_kinds"`
		SpanFields []string      `json:"span_fields"`
		Spans      [][6]int64    `json:"spans"`
		Steps      []stepSummary `json:"steps"`
	}{Workload: workload, Dropped: dropped, Spans: make([][6]int64, 0, n), Steps: t.steps,
		SpanFields: []string{"kind", "step", "node", "round", "start_ns", "end_ns"}}
	for _, k := range spanNames {
		out.Kinds = append(out.Kinds, kindJSON{k.name, k.parent})
	}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			out.Spans = append(out.Spans, [6]int64{int64(s.Kind), int64(s.Step), int64(s.Node), int64(s.Round), s.Start, s.End})
		}
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newTracerIf returns the traced run's tracer; spans says whether the
// workload has budget steps to record spans for.
func newTracerIf(traced, spans bool) *tracer {
	if traced {
		return &tracer{spans: spans}
	}
	return nil
}

// finishTrace stores the trace.* counts and writes the trace file.
func finishTrace(trc *tracer, o runOpts, r *report, name string) {
	spans, dropped := trc.counts()
	r.set("trace.spans", float64(spans))
	r.set("trace.dropped_spans", float64(dropped))
	if err := trc.write(o.outDir, name); err != nil {
		r.fail("%s: writing the trace: %v", name, err)
	}
}
