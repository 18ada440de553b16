// Package sim exercises the determinism analyzer inside a simulation
// package path (internal/sim), where the map-range ordering rule is in
// force in addition to the module-wide wall-clock and global-rand
// rules.
package sim

import (
	"math/rand"
	"sort"
	"time"

	"trace"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want `determinism: time.Now is wall-clock`
}

func wallClockAllowed() int64 {
	//secvet:allow determinism -- fixture: profiling-only wall-clock read
	return time.Now().UnixNano()
}

func globalRand() int {
	return rand.Intn(8) // want `determinism: rand.Intn draws from the shared global source`
}

func seededRand(r *rand.Rand) int {
	return r.Intn(8) // ok: per-instance seeded source
}

func mapAppend(m map[int]int) []int {
	var out []int
	for k := range m { // want `map iteration order feeds append`
		out = append(out, k)
	}
	return out
}

func mapAppendSorted(m map[int]int) []int {
	var out []int
	for k := range m { // ok: collect-then-sort washes the order out
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func mapSend(m map[int]int, ch chan int) {
	for k := range m { // want `map iteration order feeds a channel send`
		ch <- k
	}
}

func mapTrace(m map[int]int, c *trace.Collector) {
	for k := range m { // want `map iteration order feeds trace.Event`
		c.Event("page", k)
	}
}

func sliceRange(pages []int, ch chan int) {
	for _, p := range pages { // ok: slice iteration is ordered
		ch <- p
	}
}
