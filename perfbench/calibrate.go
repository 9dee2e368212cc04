package main

import (
	"fmt"
	"sort"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/sim"
)

// calibration holds the isolated layer timings of a traced run, each
// the median over batches of a batch's mean, in nanoseconds.
type calibration struct {
	clock    float64         // one nanotime call
	execute  map[int]float64 // bus.Execute, by snooper count
	readLine float64         // memory.ReadLine of a populated line
	emit     float64         // obs.Recorder.Emit into a discarding sink
}

// snooperCounts are the standalone-bus sizes for the fan-out slope.
var snooperCounts = []int{4, 8, 16}

const (
	calBatches = 9
	calLines   = 1024 // distinct lines cycled through, so no single line stays hot
)

// keep defeats dead-code elimination of calibrated calls.
var keep int64

// perOp runs fn(n) once to warm up, then calBatches times, and returns
// the median ns per op.
func perOp(n int, fn func(n int)) float64 {
	fn(n)
	vals := make([]float64, calBatches)
	for i := range vals {
		t0 := nanotime()
		fn(n)
		vals[i] = float64(nanotime()-t0) / float64(n)
	}
	return median(vals)
}

func calibrate() (calibration, error) {
	c := calibration{execute: map[int]float64{}}
	c.clock = perOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			keep += nanotime()
		}
	})

	// An uncached read by a master that is not attached: every snooper
	// is queried and misses, and memory supplies the line.
	for _, k := range snooperCounts {
		sys, err := sim.New(sim.Homogeneous("moesi", k))
		if err != nil {
			return c, err
		}
		tx := bus.Transaction{MasterID: k, Op: core.BusRead}
		var execErr error
		c.execute[k] = perOp(4000, func(n int) {
			for i := 0; i < n; i++ {
				tx.Addr = bus.Addr(i % calLines)
				r, err := sys.Bus.Execute(&tx)
				if err != nil {
					execErr = err
				}
				keep += r.Cost
			}
		})
		if execErr != nil {
			return c, fmt.Errorf("bus.Execute with %d snoopers: %w", k, execErr)
		}
	}

	mem := memory.New(bus.DefaultLineSize)
	line := make([]byte, bus.DefaultLineSize)
	for a := 0; a < calLines; a++ {
		mem.WriteLine(bus.Addr(a), line)
	}
	c.readLine = perOp(50000, func(n int) {
		for i := 0; i < n; i++ {
			keep += int64(len(mem.ReadLine(bus.Addr(i % calLines))))
		}
	})

	rec := obs.New(obs.SinkFunc(func(*obs.Event) {}))
	c.emit = perOp(50000, func(n int) {
		for i := 0; i < n; i++ {
			rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindTx, Proc: 1, Addr: uint64(i % calLines)})
		}
	})
	return c, rec.Close()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
