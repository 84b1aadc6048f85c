package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string, int](100)
	if _, ok := c.Get("a"); ok {
		t.Error("hit on empty cache")
	}
	c.Put("a", 1, 10)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v,%v want 1,true", v, ok)
	}
	c.Put("a", 2, 10) // refresh
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("refresh failed, got %v", v)
	}
	if c.Len() != 1 || c.UsedBytes() != 10 {
		t.Errorf("Len=%d Used=%d, want 1,10", c.Len(), c.UsedBytes())
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU[int, int](30)
	c.Put(1, 1, 10)
	c.Put(2, 2, 10)
	c.Put(3, 3, 10)
	c.Get(1)        // 1 now most recent; 2 is LRU
	c.Put(4, 4, 10) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %d wrongly evicted", k)
		}
	}
	if c.Counters().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Counters().Evictions)
	}
}

func TestLRUCapacityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(capRaw uint16, ops uint8) bool {
		capBytes := int64(capRaw%500) + 1
		c := NewLRU[int, int](capBytes)
		for i := 0; i < int(ops); i++ {
			c.Put(rng.Intn(50), i, int64(rng.Intn(60)))
			if c.UsedBytes() > capBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLRURejectsOversized(t *testing.T) {
	c := NewLRU[int, int](10)
	c.Put(1, 1, 11)
	if c.Len() != 0 {
		t.Error("oversized entry cached")
	}
	c.Put(2, 2, -1)
	if c.Len() != 0 {
		t.Error("negative-size entry cached")
	}
}

func TestLRUZeroCapacityAlwaysMisses(t *testing.T) {
	c := NewLRU[int, int](0)
	c.Put(1, 1, 1)
	if _, ok := c.Get(1); ok {
		t.Error("zero-capacity cache stored an entry")
	}
	if c.Counters().HitRate() != 0 {
		t.Error("HitRate != 0 on always-miss cache")
	}
}

func TestLRUPutReportsEvicted(t *testing.T) {
	c := NewLRU[int, string](30)
	if stored, ev := c.Put(1, "a", 10); !stored || len(ev) != 0 {
		t.Errorf("Put(1) = %v,%v want true,none", stored, ev)
	}
	c.Put(2, "b", 10)
	c.Put(3, "c", 10)
	stored, ev := c.Put(4, "d", 25) // must push out 1, 2, 3 (oldest first)
	if !stored {
		t.Fatal("Put(4) not stored")
	}
	want := []Evicted[int, string]{{1, "a"}, {2, "b"}, {3, "c"}}
	if len(ev) != len(want) {
		t.Fatalf("evicted %v, want %v", ev, want)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("evicted[%d] = %v, want %v", i, ev[i], want[i])
		}
	}
	// Refreshing a present key never reports the replaced value.
	if _, ev := c.Put(4, "d2", 25); len(ev) != 0 {
		t.Errorf("refresh reported evictions: %v", ev)
	}
	// An oversized entry is refused without disturbing the cache.
	if stored, _ := c.Put(5, "e", 31); stored {
		t.Error("oversized entry reported as stored")
	}
	if _, ok := c.Get(4); !ok {
		t.Error("entry 4 lost after refused Put")
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU[int, string](30)
	c.Put(1, "a", 10)
	c.Put(2, "b", 10)
	v, ok := c.Remove(1)
	if !ok || v != "a" {
		t.Errorf("Remove(1) = %q,%v want a,true", v, ok)
	}
	if _, ok := c.Remove(1); ok {
		t.Error("second Remove(1) reported present")
	}
	if c.UsedBytes() != 10 || c.Len() != 1 {
		t.Errorf("Used=%d Len=%d after Remove, want 10,1", c.UsedBytes(), c.Len())
	}
	if c.Counters().Evictions != 0 {
		t.Error("Remove counted as an eviction")
	}
	// The freed budget is usable again.
	if stored, ev := c.Put(3, "c", 20); !stored || len(ev) != 0 {
		t.Errorf("Put(3) after Remove = %v,%v want true,none", stored, ev)
	}
}

func TestHitRate(t *testing.T) {
	c := NewLRU[int, int](100)
	c.Put(1, 1, 1)
	c.Get(1)
	c.Get(1)
	c.Get(2)
	if hr := c.Counters().HitRate(); math.Abs(hr-2.0/3.0) > 1e-12 {
		t.Errorf("HitRate = %v, want 2/3", hr)
	}
	if (CounterSnapshot{}).HitRate() != 0 {
		t.Error("empty snapshot HitRate != 0")
	}
}

func TestReuseProbabilityProperties(t *testing.T) {
	// f=1: no reuse possible. Monotone decreasing in cores at fixed f.
	if p := ReuseProbability(1, 480, 24); p != 0 {
		t.Errorf("f=1 gives %v, want 0", p)
	}
	prev := 2.0
	for _, cores := range []int{480, 960, 1920, 3840, 7680, 15360} {
		p := ReuseProbability(50, cores, 24)
		if p <= 0 || p >= 1 {
			t.Errorf("cores=%d: p=%v out of (0,1)", cores, p)
		}
		if p >= prev {
			t.Errorf("reuse probability not decreasing: %v at %d cores", p, cores)
		}
		prev = p
	}
	// Single-node machine: reuse certain.
	if p := ReuseProbability(50, 24, 24); p != 1 {
		t.Errorf("single node gives %v, want 1", p)
	}
}

func TestReuseProbabilityMatchesPaperAnchors(t *testing.T) {
	// Fig 7 with d=100, L=100, k=51, f=50, ppn=24: at small core counts the
	// probability is near 1; it decays towards ~0.07 at 15360 cores
	// (m=640 nodes: 1-(1-1/640)^49 ≈ 0.074).
	p480 := ReuseProbability(50, 480, 24)
	if p480 < 0.9 {
		t.Errorf("P(reuse) at 480 cores = %v, want > 0.9", p480)
	}
	p15360 := ReuseProbability(50, 15360, 24)
	if math.Abs(p15360-0.0737) > 0.01 {
		t.Errorf("P(reuse) at 15360 cores = %v, want ~0.074", p15360)
	}
}

func TestSimulateReuseAgreesWithClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cores := range []int{480, 1920, 7680} {
		analytic := ReuseProbability(50, cores, 24)
		mc := SimulateReuse(rng, 50, cores, 24, 20000)
		if math.Abs(analytic-mc) > 0.02 {
			t.Errorf("cores=%d: analytic %v vs MC %v", cores, analytic, mc)
		}
	}
}

func ExampleReuseProbability() {
	for _, cores := range []int{480, 3840, 15360} {
		fmt.Printf("%5d cores: %.3f\n", cores, ReuseProbability(50, cores, 24))
	}
	// Output:
	//   480 cores: 0.919
	//  3840 cores: 0.265
	// 15360 cores: 0.074
}

func BenchmarkLRUGetHit(b *testing.B) {
	c := NewLRU[kmer.Kmer, int](1 << 20)
	km := kmer.MustFromString("ACGTACGTACGTACGTACG")
	c.Put(km, 1, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(km)
	}
}

func BenchmarkLRUPutEvict(b *testing.B) {
	c := NewLRU[int, int](1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(i, i, 64)
	}
}
