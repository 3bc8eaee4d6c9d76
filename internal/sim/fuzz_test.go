package sim

import "testing"

// FuzzEventOrder feeds both kernels (the Engine and the container/heap
// reference) the op stream encoded by the fuzz input and requires identical
// dispatch order and identical Cancel semantics. Each input byte pair is
// one op: the low bits of the first byte pick schedule-delay class /
// cancel-last / nested spawn, the second parameterizes it.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x10, 0xFF, 0x23, 0x00, 0x31, 0x80, 0x02, 0x41})
	f.Add([]byte{3, 255, 3, 254, 2, 9, 1, 1, 0, 0, 4, 4, 4, 0})
	f.Add([]byte{2, 200, 4, 0, 2, 200, 4, 1, 3, 3, 3, 3})

	f.Fuzz(func(t *testing.T, ops []byte) {
		type kernel struct {
			schedule func(when Cycle, fn func()) any
			cancel   func(h any)
			step     func() bool
			now      func() Cycle
		}
		eng := NewEngine()
		ref := &refEngine{}
		kernels := []kernel{
			{
				schedule: func(when Cycle, fn func()) any { return eng.At(when, fn) },
				cancel:   func(h any) { eng.Cancel(h.(*Event)) },
				step:     eng.Step,
				now:      eng.Now,
			},
			{
				schedule: func(when Cycle, fn func()) any { return ref.at(when, fn) },
				cancel:   func(h any) { ref.cancel(h.(*refEvent)) },
				step:     ref.step,
				now:      func() Cycle { return ref.now },
			},
		}
		var orders [2][]int
		for ki, k := range kernels {
			ki, k := ki, k
			id := 0
			var last any
			for i := 0; i+1 < len(ops); i += 2 {
				op, arg := ops[i]&7, Cycle(ops[i+1])
				switch op {
				case 0, 1, 2, 3: // schedule in one of four delay classes
					delay := arg << (4 * op) // 0..255, ..., 0..~1M cycles
					myID := id
					id++
					last = k.schedule(k.now()+delay, func() {
						orders[ki] = append(orders[ki], myID)
					})
				case 4: // cancel the most recently scheduled event
					if last != nil {
						k.cancel(last)
						last = nil
					}
				default: // run a few events
					for n := Cycle(0); n <= arg%4; n++ {
						if !k.step() {
							break
						}
					}
				}
			}
			for k.step() {
			}
		}
		if len(orders[0]) != len(orders[1]) {
			t.Fatalf("engine dispatched %d events, reference %d", len(orders[0]), len(orders[1]))
		}
		for i := range orders[0] {
			if orders[0][i] != orders[1][i] {
				t.Fatalf("dispatch %d: engine event %d, reference event %d",
					i, orders[0][i], orders[1][i])
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events stuck in engine queue", eng.Pending())
		}
	})
}
