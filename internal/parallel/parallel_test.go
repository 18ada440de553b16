package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("Map(n=0) = %v, %v; want nil, nil", out, err)
	}
}

// TestMapOrder checks that results land at their submission index no
// matter the completion order (jittered by index-dependent sleeps).
func TestMapOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 4, 8, n + 5} {
		fn := func(i int) (int, error) {
			time.Sleep(time.Duration((i*37)%5) * time.Millisecond)
			return i * i, nil
		}
		got, err := Map(workers, n, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i * i
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results out of order: %v", workers, got)
		}
	}
}

// TestMapMatchesSerial is the pool-level determinism guarantee: any
// worker count returns exactly the serial result.
func TestMapMatchesSerial(t *testing.T) {
	const n = 64
	fn := func(i int) (string, error) { return fmt.Sprintf("cell-%03d", i*i), nil }
	serial, err := Map(1, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := Map(workers, n, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: parallel result differs from serial", workers)
		}
	}
}

// TestMapFirstErrorWins induces failures at two indexes and checks the
// lowest-index error is the one reported, regardless of which worker
// trips first temporally.
func TestMapFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(4, 32, func(i int) (int, error) {
			switch i {
			case 3:
				// Make the low-index failure slow so the high one is
				// usually observed first.
				time.Sleep(2 * time.Millisecond)
				return 0, errLow
			case 7:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want lowest-index error %v", trial, err, errLow)
		}
	}
}

// TestMapDrainsCleanly checks that after an error the pool lets every
// in-flight job finish and starts no job past the failure horizon:
// started == finished when Map returns, and no new job starts after.
func TestMapDrainsCleanly(t *testing.T) {
	boom := errors.New("boom")
	var started, finished atomic.Int64
	_, err := Map(4, 200, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		if i == 10 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	s, f := started.Load(), finished.Load()
	if s != f {
		t.Errorf("pool leaked in-flight work: started %d, finished %d", s, f)
	}
	if s >= 200 {
		t.Errorf("pool kept scheduling after failure: %d of 200 jobs ran", s)
	}
	// No goroutine may outlive Map: any late start would bump the
	// counter after return.
	time.Sleep(5 * time.Millisecond)
	if late := started.Load(); late != s {
		t.Errorf("job started after Map returned (%d -> %d)", s, late)
	}
}
