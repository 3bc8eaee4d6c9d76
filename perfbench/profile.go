package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads CPU profiles in the pprof protobuf format (as written by
// runtime/pprof and served at /debug/pprof/profile) and charges each sample
// to a layer of the program. Only the fields attribution needs are decoded:
// samples, locations, functions and the string table.

// stack is one profile sample: its frames from leaf to root (inlined frames
// expanded, innermost first) and its CPU time.
type stack struct {
	frames []string
	cpuNs  int64
}

// parseProfile decodes a (possibly gzipped) pprof protobuf CPU profile.
func parseProfile(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		types     []uint64                // sample_type[i].type string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	err := eachField(data, func(f int, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					return appendUints(&s.vals, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		st := stack{cpuNs: int64(s.vals[cpu])}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				st.frames = append(st.frames, str(funcNames[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varints in v
// and length-delimited payloads in b. Fixed-width fields are skipped.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		tag, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field tag")
		}
		data = data[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const programPrefix = "fpb/internal/"

// layerOf charges a sample to its innermost program package: the first
// frame from the leaf whose function lives under fpb/internal. Runtime and
// standard-library frames therefore go to their nearest program caller, and
// a stack with no program frame at all (GC workers, the scheduler, the
// benchmark's own code) goes to "other".
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, programPrefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// layerMetric names a package's self-time metric: the last element of its
// import path ("serve/client" reports as "client").
func layerMetric(pkg string) string {
	return pkg[strings.LastIndexByte(pkg, '/')+1:] + ".self_s"
}

// onStack reports whether any frame is exactly one of fns.
func onStack(frames []string, fns ...string) bool {
	for _, f := range frames {
		for _, fn := range fns {
			if f == fn {
				return true
			}
		}
	}
	return false
}

// gcFrames mark CPU spent by the garbage collector: background mark
// workers, mark assists charged to allocating goroutines, and sweeping.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.sweepone",
}

// attribution sums profile CPU per layer.
type attribution struct {
	totalS   float64
	selfS    map[string]float64 // layer -> seconds
	buildS   float64            // system.build on the stack
	runS     float64            // (*System).Run on the stack
	runSelfS map[string]float64 // per layer, within (*System).Run
	gcS      float64
}

func attribute(stacks []stack) attribution {
	a := attribution{selfS: map[string]float64{}, runSelfS: map[string]float64{}}
	for _, s := range stacks {
		sec := float64(s.cpuNs) / 1e9
		a.totalS += sec
		layer := layerOf(s.frames)
		a.selfS[layer] += sec
		if onStack(s.frames, "fpb/internal/system.build") {
			a.buildS += sec
		}
		if onStack(s.frames, "fpb/internal/system.(*System).Run") {
			a.runS += sec
			a.runSelfS[layer] += sec
		}
		if onStack(s.frames, gcFrames...) {
			a.gcS += sec
		}
	}
	return a
}
