package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"fpb/internal/pcm.(*Builder).Build", "fpb/internal/mem.(*Controller).issue"}, "pcm"},
		// Runtime and standard-library frames go to the nearest program caller.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "fpb/internal/cache.NewHierarchy", "fpb/internal/system.build"}, "cache"},
		{[]string{"crypto/sha256.block", "fpb/internal/system.Key"}, "system"},
		{[]string{"fpb/internal/cluster/ring.(*Ring).Owners", "fpb/internal/serve/client.(*Fleet).doFailover"}, "cluster/ring"},
		{[]string{"net/http.(*conn).serve", "fpb/internal/serve/client.(*Client).Submit"}, "serve/client"},
		{[]string{"fpb/internal/sim.(*Queue[...]).Push", "main.main"}, "sim"},
		// No program frame at all: GC workers, the benchmark's own code.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "other"},
		{[]string{"encoding/json.Marshal", "main.digest", "main.runChild"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestLayerMetric(t *testing.T) {
	for pkg, want := range map[string]string{
		"pcm": "pcm.self_s", "serve/client": "client.self_s", "cluster/ring": "ring.self_s", "other": "other.self_s",
	} {
		if got := layerMetric(pkg); got != want {
			t.Errorf("layerMetric(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	ms := int64(time.Millisecond)
	a := attribute([]stack{
		{[]string{"fpb/internal/cache.(*Hierarchy).Clone", "fpb/internal/system.prefilledHierarchy", "fpb/internal/system.build"}, 30 * ms},
		{[]string{"fpb/internal/pcm.build", "fpb/internal/mem.(*Controller).issue", "fpb/internal/system.(*System).Run"}, 50 * ms},
		{[]string{"runtime.memmove", "fpb/internal/sim.(*Engine).Step", "fpb/internal/system.(*System).Run"}, 10 * ms},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "fpb/internal/workload.(*Generator).Next"}, 5 * ms},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 5 * ms},
	})
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	for name, c := range map[string][2]float64{
		"total": {a.totalS, 0.100}, "build": {a.buildS, 0.030}, "run": {a.runS, 0.060}, "gc": {a.gcS, 0.010},
		"cache": {a.selfS["cache"], 0.030}, "pcm": {a.selfS["pcm"], 0.050}, "sim": {a.selfS["sim"], 0.010},
		"workload": {a.selfS["workload"], 0.005}, "other": {a.selfS["other"], 0.005},
		"pcm under run": {a.runSelfS["pcm"], 0.050}, "cache under run": {a.runSelfS["cache"], 0},
	} {
		if !near(c[0], c[1]) {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}
}

// pb is a minimal protobuf writer for hand-built test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(field, b)
}

func TestParseProfile(t *testing.T) {
	var prof pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"fpb/internal/pcm.inlined", "fpb/internal/mem.issue", "runtime.mallocgc"}
	var vt pb
	vt.varint(1, 1)
	vt.varint(2, 2)
	prof.bytesField(1, vt.Bytes())
	vt.Reset()
	vt.varint(1, 3)
	vt.varint(2, 4)
	prof.bytesField(1, vt.Bytes())
	// One sample with packed fields, one with unpacked ones.
	var s pb
	s.packed(1, 2, 1)
	s.packed(2, 1, 10_000_000)
	prof.bytesField(2, s.Bytes())
	s.Reset()
	s.varint(1, 1)
	s.varint(2, 1)
	s.varint(2, 20_000_000)
	prof.bytesField(2, s.Bytes())
	// Location 1 holds pcm.inlined inlined into mem.issue; location 2 is
	// a runtime frame.
	var loc, line pb
	loc.varint(1, 1)
	line.varint(1, 10)
	loc.bytesField(4, line.Bytes())
	line.Reset()
	line.varint(1, 11)
	loc.bytesField(4, line.Bytes())
	prof.bytesField(4, loc.Bytes())
	loc.Reset()
	loc.varint(1, 2)
	line.Reset()
	line.varint(1, 12)
	loc.bytesField(4, line.Bytes())
	prof.bytesField(4, loc.Bytes())
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7} {
		var fn pb
		fn.varint(1, id)
		fn.varint(2, name)
		prof.bytesField(5, fn.Bytes())
	}
	for _, str := range strs {
		prof.bytesField(6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("%d stacks, want 2", len(stacks))
	}
	want0 := []string{"runtime.mallocgc", "fpb/internal/pcm.inlined", "fpb/internal/mem.issue"}
	if got := stacks[0].frames; len(got) != 3 || got[0] != want0[0] || got[1] != want0[1] || got[2] != want0[2] {
		t.Errorf("frames = %v, want %v", got, want0)
	}
	if stacks[0].cpuNs != 10_000_000 || stacks[1].cpuNs != 20_000_000 {
		t.Errorf("cpu = %d, %d", stacks[0].cpuNs, stacks[1].cpuNs)
	}
	if l := layerOf(stacks[0].frames); l != "pcm" {
		t.Errorf("layer = %q, want pcm (innermost inlined frame)", l)
	}
}

// TestParseRuntimeProfile checks the decoder against what runtime/pprof
// actually writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		if s.cpuNs <= 0 || len(s.frames) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
	}
	_ = x
}
