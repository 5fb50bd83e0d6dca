package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestCalendarMatchesStableSort: a seeded mix of Push, Pop and
// Reschedule on instants from a small range, so most instants are
// shared, yields exactly what a list stably sorted by instant yields
// when each value goes to its end whenever it is scheduled: by instant,
// then by the order scheduled. Reschedule counts as a fresh schedule.
func TestCalendarMatchesStableSort(t *testing.T) {
	type item struct {
		at time.Duration
		v  int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal Calendar[int]
		var ref []item // in schedule order until sorted; a stable sort keeps ties in it
		earliest := func() item {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
			return ref[0]
		}
		next := 0
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(ref) == 0:
				at := time.Duration(rng.Intn(16))
				cal.Push(at, next)
				ref = append(ref, item{at, next})
				next++
			case r < 7:
				want := earliest()
				ref = ref[1:]
				if got := cal.Pop(); got.At != want.at || got.Value != want.v {
					t.Fatalf("seed %d op %d: Pop = (%v, %d); want (%v, %d)", seed, op, got.At, got.Value, want.at, want.v)
				}
			default:
				want := earliest()
				if got := cal.Peek(); got.At != want.at || got.Value != want.v {
					t.Fatalf("seed %d op %d: Peek = (%v, %d); want (%v, %d)", seed, op, got.At, got.Value, want.at, want.v)
				}
				at := want.at + time.Duration(rng.Intn(4))
				cal.Reschedule(at)
				ref = append(ref[1:], item{at, want.v})
			}
			if cal.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d; want %d", seed, op, cal.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			want := earliest()
			ref = ref[1:]
			if got := cal.Pop(); got.At != want.at || got.Value != want.v {
				t.Fatalf("seed %d drain: Pop = (%v, %d); want (%v, %d)", seed, got.At, got.Value, want.at, want.v)
			}
		}
	}
}

// TestCalendarSteadyStateAllocs: once the heap has grown, neither a
// Reschedule nor a Pop followed by a Push allocates — the per-hop
// schedule of the simulator and the soak's per-emission one.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	var cal Calendar[event]
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		cal.Push(time.Duration(rng.Intn(1000)), event{kind: evArrive, pkt: &Packet{ID: int64(i)}})
	}
	if n := testing.AllocsPerRun(1000, func() {
		cal.Reschedule(cal.Peek().At + time.Duration(rng.Intn(1000)))
	}); n != 0 {
		t.Errorf("Reschedule allocates %v per call; want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e := cal.Pop()
		cal.Push(e.At+time.Duration(rng.Intn(1000)), e.Value)
	}); n != 0 {
		t.Errorf("Pop+Push allocates %v per cycle; want 0", n)
	}
}
