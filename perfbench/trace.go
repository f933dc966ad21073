package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Span names of the layer surfaces the traced run times.
const (
	spanStep      = "core.Learner.Step"
	spanNextBatch = "core.BatchSource.NextBatch"
)

// span is one timed call into a layer's public surface.
type span struct {
	name       string
	start, end time.Duration // since the trace epoch
	id, parent int32
	step       int32
	rank       int16
	// tid is the goroutine the span ran on: 0 the rank's learner loop, 1
	// its device worker.
	tid int16
}

// recorder keeps the spans of one goroutine of one rank in memory. Only its
// goroutine appends; the driver reads the spans once the step that wrote
// them has returned.
type recorder struct {
	epoch time.Time
	rank  int16
	tid   int16
	spans []span
	// step and parent are set by the rank's learner loop before each
	// Learner.Step, so spans on the device worker attach to that step.
	step   int32
	parent int32
}

func newRecorder(epoch time.Time, rank, tid int) *recorder {
	return &recorder{epoch: epoch, rank: int16(rank), tid: int16(tid), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a finished span that began at start.
func (r *recorder) add(name string, start time.Duration) {
	r.spans = append(r.spans, span{
		name: name, start: start, end: r.now(),
		id: r.nextID(), parent: r.parent, step: r.step, rank: r.rank, tid: r.tid,
	})
}

// open records a span whose end is filled in later by close, so spans
// recorded in between can name it as their parent.
func (r *recorder) open(name string) int {
	r.spans = append(r.spans, span{
		name: name, start: r.now(), id: r.nextID(), parent: -1, step: r.step, rank: r.rank, tid: r.tid,
	})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) { r.spans[i].end = r.now() }

// nextID makes span ids unique per rank across its two recorders.
func (r *recorder) nextID() int32 { return int32(r.tid)<<28 | int32(len(r.spans)) }

// tracedLayer times Forward and Backward of one top-level child of a
// replica. Backward with a gradient hook goes through nn.BackwardNotify, so
// hook order and arithmetic are those of the unwrapped child.
type tracedLayer struct {
	inner    nn.Layer
	rec      *recorder
	fwd, bwd string
}

// A hooked backward must reach the wrapped child's own hook propagation.
var _ nn.GradNotifier = (*tracedLayer)(nil)

func (t *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	start := t.rec.now()
	y := t.inner.Forward(x, train)
	t.rec.add(t.fwd, start)
	return y
}

func (t *tracedLayer) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	start := t.rec.now()
	g := t.inner.Backward(gradOut)
	t.rec.add(t.bwd, start)
	return g
}

func (t *tracedLayer) BackwardWithGradHook(gradOut *tensor.Tensor, hook nn.ParamHook) *tensor.Tensor {
	start := t.rec.now()
	g := nn.BackwardNotify(t.inner, gradOut, hook)
	t.rec.add(t.bwd, start)
	return g
}

func (t *tracedLayer) Params() []*nn.Param { return t.inner.Params() }
func (t *tracedLayer) Name() string        { return t.inner.Name() }

// blockName is a child's name without its model's prefix
// ("tinyresnet.s1.b0" → "s1.b0").
func blockName(model *nn.Sequential, child nn.Layer) string {
	return strings.TrimPrefix(child.Name(), model.Name()+".")
}

// wrapChildren replaces every top-level child of model with a tracedLayer
// recording into rec. Parameters are shared, not copied.
func wrapChildren(model *nn.Sequential, rec *recorder) {
	for i, child := range model.Layers {
		b := blockName(model, child)
		model.Layers[i] = &tracedLayer{inner: child, rec: rec, fwd: "nn." + b + ".forward", bwd: "nn." + b + ".backward"}
	}
}

// tracedSource times core.BatchSource.NextBatch.
type tracedSource struct {
	inner core.BatchSource
	rec   *recorder
}

func (s *tracedSource) NextBatch(x *tensor.Tensor, labels []int) error {
	start := s.rec.now()
	err := s.inner.NextBatch(x, labels)
	s.rec.add(spanNextBatch, start)
	return err
}

// traceEvent is one Chrome trace-event ("X", complete) record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON (one process per
// rank, one thread per goroutine), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"traceEvents\":[\n") // bufio errors surface at Flush
	for i, s := range spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		ev := traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: int(s.rank), Tid: int(s.tid),
			Args: map[string]any{"id": s.id, "parent": s.parent, "step": s.step},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
