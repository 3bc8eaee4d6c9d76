package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation (a sweep, a batch, one readback) share Trace.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory until write. A nil *spans records
// nothing, so untraced runs pay one nil check per call.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	s     *spans
	trace uint64
	id    uint64
	par   uint64
	name  string
	start int64
}

// start opens a span under parent; a zero parent starts a new operation.
func (s *spans) start(parent open, name string) open {
	if s == nil {
		return open{}
	}
	s.mu.Lock()
	s.next++
	o := open{s: s, trace: parent.trace, id: s.next, par: parent.id, name: name}
	s.mu.Unlock()
	if o.trace == 0 {
		o.trace = o.id
	}
	o.start = time.Since(s.epoch).Nanoseconds()
	return o
}

// end closes the span and keeps it.
func (o open) end() {
	if o.s == nil {
		return
	}
	sp := span{Trace: o.trace, ID: o.id, Parent: o.par, Name: o.name,
		Start: o.start, End: time.Since(o.s.epoch).Nanoseconds()}
	o.s.mu.Lock()
	o.s.list = append(o.s.list, sp)
	o.s.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
