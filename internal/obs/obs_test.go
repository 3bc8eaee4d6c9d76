package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryCounterGauge(t *testing.T) {
	h := NewHub()
	c := h.Counter("a.b.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	x := 2.5
	h.Gauge("a.b.gauge", func() float64 { return x })
	if v, ok := h.Registry().Value("a.b.gauge"); !ok || v != 2.5 {
		t.Fatalf("gauge = %v, %v", v, ok)
	}
	x = 7
	if v, _ := h.Registry().Value("a.b.gauge"); v != 7 {
		t.Fatalf("gauge did not track source: %v", v)
	}
	// Same-name counter registration returns the same counter.
	if h.Counter("a.b.count") != c {
		t.Fatal("re-registration returned a different counter")
	}
	snap := h.Registry().Snapshot()
	if len(snap) != 2 || snap[0].Name != "a.b.count" || snap[1].Name != "a.b.gauge" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Kind != KindCounter || snap[1].Kind != KindGauge {
		t.Fatalf("kinds = %v, %v", snap[0].Kind, snap[1].Kind)
	}
}

func TestNilHubIsSafe(t *testing.T) {
	var h *Hub
	c := h.Counter("x")
	c.Inc() // detached but functional
	if c.Value() != 1 {
		t.Fatal("detached counter broken")
	}
	h.Gauge("y", func() float64 { return 1 })
	h.Emit(Event{Cat: "mem", Name: "e"})
	h.SetClock(func() uint64 { return 9 })
	h.SetTracer(NewTracer())
	if h.Tracing() || h.Registry() != nil || h.Now() != 0 {
		t.Fatal("nil hub leaked state")
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	h := NewHub()
	h.Counter("b.n").Add(3)
	h.Gauge("a.g", func() float64 { return 1.5 })
	// Histograms stay out of the JSON dump (and Values), whose key set
	// predates them.
	h.Histogram("c.h", []float64{1}).Observe(1)
	var buf1, buf2 bytes.Buffer
	if err := EncodeSeries(&buf1, h.Registry().Values()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSeries(&buf2, h.Registry().Values()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two dumps differ")
	}
	var m map[string]float64
	if err := json.Unmarshal(buf1.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf1.String())
	}
	if len(m) != 2 || m["a.g"] != 1.5 || m["b.n"] != 3 {
		t.Fatalf("decoded = %v", m)
	}
	// Keys must appear in sorted order in the raw bytes.
	if strings.Index(buf1.String(), "a.g") > strings.Index(buf1.String(), "b.n") {
		t.Fatalf("keys unsorted:\n%s", buf1.String())
	}
}

func TestTracerFilterAndSampling(t *testing.T) {
	var lines bytes.Buffer
	tr := NewTracer(NewJSONL(&lines))
	// Default filter: everything except "engine".
	if !tr.Enabled("mem") || tr.Enabled("engine") {
		t.Fatal("default filter wrong")
	}
	tr.Emit(Event{Cat: "engine", Name: "dispatch"})
	tr.Emit(Event{Cat: "mem", Name: "keep"})
	tr.FilterCats("power")
	tr.Emit(Event{Cat: "mem", Name: "dropped"})
	tr.Emit(Event{Cat: "power", Name: "kept2"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := lines.String()
	if strings.Contains(got, "dispatch") || strings.Contains(got, "dropped") {
		t.Fatalf("filter leaked:\n%s", got)
	}
	if !strings.Contains(got, "keep") || !strings.Contains(got, "kept2") {
		t.Fatalf("filter over-dropped:\n%s", got)
	}

	lines.Reset()
	tr = NewTracer(NewJSONL(&lines))
	tr.Sample(10)
	for i := 0; i < 100; i++ {
		tr.Emit(Event{Cat: "mem", Name: "e"})
	}
	tr.Close()
	if n := strings.Count(lines.String(), "\n"); n != 10 {
		t.Fatalf("sampled %d events, want 10", n)
	}
}

func TestJSONLLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONL(&buf))
	tr.Emit(Event{Cycle: 42, Kind: Span, Cat: "mem", Name: "write", ID: 3, Addr: 0x1000, V: 12.5, Dur: 7})
	tr.Emit(Event{Cycle: 50, Kind: Meter, Cat: "power", Name: "gcp.tokens", ID: -1, V: 66.5})
	tr.Close()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}

func TestChromeSinkValidTraceEvent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewChrome(&buf, 4000))
	tr.Emit(Event{Cycle: 8000, Kind: Span, Cat: "mem", Name: "write", ID: 2, Addr: 64, V: 3, Dur: 4000})
	tr.Emit(Event{Cycle: 9000, Kind: Instant, Cat: "mem", Name: "write.cancel", ID: 2})
	tr.Emit(Event{Cycle: 9500, Kind: Meter, Cat: "power", Name: "gcp.tokens", ID: -1, V: 12})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0]["ph"] != "X" || evs[0]["dur"] != 1.0 || evs[0]["ts"] != 1.0 {
		t.Fatalf("span encoded wrong: %v", evs[0])
	}
	if evs[1]["ph"] != "i" || evs[2]["ph"] != "C" {
		t.Fatalf("phases wrong: %v / %v", evs[1]["ph"], evs[2]["ph"])
	}
}

func TestProberCSV(t *testing.T) {
	h := NewHub()
	depth := 0.0
	h.Gauge("mem.wrq.depth", func() float64 { return depth })
	h.Counter("mem.writes.done").Add(2)
	var buf bytes.Buffer
	p := NewProber(h.Registry(), &buf)
	p.Sample(1000)
	depth = 5
	p.Sample(2000)
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	want := "cycle,mem.writes.done,mem.wrq.depth\n1000,2,0\n2000,2,5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	if p.Rows() != 2 {
		t.Fatalf("rows = %d", p.Rows())
	}
}
