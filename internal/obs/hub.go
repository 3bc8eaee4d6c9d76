package obs

// Hub ties one simulated system's registry and tracer together and is the
// single handle components hold. Every method is safe on a nil receiver:
// a nil hub hands out detached counters, drops gauge registrations, and
// swallows events, so uninstrumented construction paths (unit tests,
// micro-benchmarks) pay one pointer check and nothing else.
type Hub struct {
	reg    *Registry
	tracer *Tracer
	clock  func() uint64
}

// NewHub returns a hub with a fresh registry, no tracer, and a clock stuck
// at zero until SetClock installs the engine's.
func NewHub() *Hub {
	return &Hub{reg: NewRegistry(), clock: func() uint64 { return 0 }}
}

// Registry exposes the metric registry (nil for a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// SetClock installs the cycle source stamped onto emitted events. The
// owning component (the memory controller) points it at sim.Engine.Now.
func (h *Hub) SetClock(clock func() uint64) {
	if h == nil || clock == nil {
		return
	}
	h.clock = clock
}

// Now reads the hub clock.
func (h *Hub) Now() uint64 {
	if h == nil {
		return 0
	}
	return h.clock()
}

// SetTracer attaches (or, with nil, detaches) the event tracer.
func (h *Hub) SetTracer(t *Tracer) {
	if h == nil {
		return
	}
	h.tracer = t
}

// Tracer returns the attached tracer, if any.
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

// Tracing reports whether events currently go anywhere. Hot paths guard
// event construction with this so disabled tracing costs two nil checks.
func (h *Hub) Tracing() bool {
	return h != nil && h.tracer != nil
}

// Emit stamps the event with the hub clock (when the emitter left Cycle
// zero) and forwards it to the tracer. No-op without a tracer.
func (h *Hub) Emit(e Event) {
	if h == nil || h.tracer == nil {
		return
	}
	if e.Cycle == 0 {
		e.Cycle = h.clock()
	}
	h.tracer.Emit(e)
}

// Counter registers the named counter, or returns a detached one on a nil
// hub.
func (h *Hub) Counter(name string) *Counter {
	if h == nil {
		return &Counter{}
	}
	return h.reg.Counter(name)
}

// Gauge registers the named gauge. No-op on a nil hub.
func (h *Hub) Gauge(name string, read func() float64) {
	if h == nil {
		return
	}
	h.reg.Gauge(name, read)
}

// Histogram registers the named histogram, or returns a detached one on a
// nil hub.
func (h *Hub) Histogram(name string, bounds []float64) *Histogram {
	if h == nil {
		return NewHistogramBuckets(bounds)
	}
	return h.reg.Histogram(name, bounds)
}
