package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimelineSequentialReservations(t *testing.T) {
	var tl Timeline
	s1, e1 := tl.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation [%v,%v), want [0,100)", s1, e1)
	}
	// Requesting at t=50 while busy until 100 must queue behind.
	s2, e2 := tl.Reserve(50, 30)
	if s2 != 100 || e2 != 130 {
		t.Fatalf("second reservation [%v,%v), want [100,130)", s2, e2)
	}
	// Requesting after the busy period starts immediately.
	s3, e3 := tl.Reserve(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third reservation [%v,%v), want [500,510)", s3, e3)
	}
}

func TestTimelineAccounting(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 100)
	tl.Reserve(0, 100)
	tl.Reserve(1000, 50)
	if tl.BusyTotal() != 250 {
		t.Fatalf("BusyTotal() = %v, want 250", tl.BusyTotal())
	}
	// The second reservation queued 100 behind the first; the third found
	// the timeline idle.
	if tl.WaitTotal() != 100 {
		t.Fatalf("WaitTotal() = %v, want 100", tl.WaitTotal())
	}
}

func TestMicrosString(t *testing.T) {
	cases := []struct {
		in   Micros
		want string
	}{
		{5, "5µs"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: a Timeline never grants overlapping intervals and never grants
// an interval starting before the request time.
func TestTimelineNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		prevEnd := Micros(-1)
		now := Micros(0)
		for i := 0; i < int(n%64)+1; i++ {
			// Random arrival jitter and duration.
			now += Micros(rng.Intn(200))
			d := Micros(rng.Intn(100) + 1)
			s, e := tl.Reserve(now, d)
			if s < now {
				return false // started before requested
			}
			if s < prevEnd {
				return false // overlap with previous grant
			}
			if e-s != d {
				return false // wrong duration
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineWaitBackToBack(t *testing.T) {
	var tl Timeline
	// Three back-to-back requests all arriving at t=0: the second waits
	// 100, the third 200.
	tl.Reserve(0, 100)
	tl.Reserve(0, 100)
	tl.Reserve(0, 100)
	if tl.WaitTotal() != 300 {
		t.Fatalf("WaitTotal = %v, want 300", tl.WaitTotal())
	}
	if tl.BusyTotal() != 300 {
		t.Fatalf("BusyTotal = %v, want 300 (fully busy over [0,300))", tl.BusyTotal())
	}
}

func TestTimelineWaitGapped(t *testing.T) {
	var tl Timeline
	// Gapped arrivals that never contend accumulate zero wait.
	tl.Reserve(0, 50)
	tl.Reserve(100, 50)
	tl.Reserve(1000, 50)
	if tl.WaitTotal() != 0 {
		t.Fatalf("WaitTotal = %v, want 0 for gapped arrivals", tl.WaitTotal())
	}
	if tl.BusyTotal() != 150 {
		t.Fatalf("BusyTotal = %v, want 150", tl.BusyTotal())
	}
	// One late-but-contending arrival: busy until 1050, request at 1040.
	tl.Reserve(1040, 10)
	if tl.WaitTotal() != 10 {
		t.Fatalf("WaitTotal = %v after contended arrival, want 10", tl.WaitTotal())
	}
}

// Property: one reservation of d1+…+dk grants the interval, busy time
// and wait time of k chained reservations — d1, then each next one
// requested when the one before it ends — so a command that holds a
// resource for back-to-back phases, or a run of copies each depending
// on the one before, may book them together.
func TestTimelineSplitReservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var whole, split Timeline
		now := Micros(0)
		for i := 0; i < int(n%32)+1; i++ {
			now += Micros(rng.Intn(300))
			d := make([]Micros, 1+rng.Intn(8))
			var sum Micros
			for j := range d {
				d[j] = Micros(rng.Intn(800) + 1)
				sum += d[j]
			}
			s1, e1 := whole.Reserve(now, sum)
			s2, end := split.Reserve(now, d[0])
			for _, dj := range d[1:] {
				_, end = split.Reserve(end, dj)
			}
			if s1 != s2 || e1 != end {
				return false
			}
		}
		return whole == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
