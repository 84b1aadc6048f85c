package catalog

// Property-based model checking of the catalog lifecycle: a randomized
// sequence of query / hot-swap / pin-and-hold / release operations runs
// against a model that knows, at every step, which snapshot version each
// reference must be serving. The invariants:
//
//   - every response is byte-identical to a dedicated aligner over the
//     reference's modeled current snapshot (the single-index oracle);
//   - a pinned handle keeps serving its version's exact bytes even after
//     the instance was evicted or hot-swapped out underneath it;
//   - the bytes charged to the LRU never exceed the budget;
//   - with no budget, nothing is evicted: every reference acquired so far
//     stays open, charged its current version's ResidentBytes;
//   - after Close, new Acquires fail typed while held pins keep working.
//
// The sequential test drives the model deterministically (SwapPoll 0, ops
// from a seeded PRNG), under a budget and unlimited; the concurrent test
// relaxes the per-response assertion to "matches one of the reference's two
// version oracles" and exists to race eviction, hot-swap, and in-flight
// aligns under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
)

// propWorld is the model: three references on disk, each flipping between
// two known snapshot versions (its own fixture and its successor's), with
// a resident oracle per version.
type propWorld struct {
	dir     string
	refs    []*testRef
	version map[string]int // modeled current version per ref: 0 or 1
}

// versionFix returns the fixture serving as version v of refs[i]: version 0
// is the reference's own genome, version 1 its successor's — two genuinely
// different indexes with different targets.
func (w *propWorld) versionFix(i, v int) *testRef {
	return w.refs[(i+v)%len(w.refs)]
}

func newPropWorld(t *testing.T) *propWorld {
	t.Helper()
	refs := makeRefs(t)
	return &propWorld{
		dir:     writeDir(t, refs),
		refs:    refs,
		version: map[string]int{refs[0].name: 0, refs[1].name: 0, refs[2].name: 0},
	}
}

// swap atomically replaces refs[i]'s snapshot with its other version —
// write-then-rename, the only replacement the serving contract allows.
func (w *propWorld) swap(t *testing.T, i int) {
	t.Helper()
	ref := w.refs[i]
	next := 1 - w.version[ref.name]
	tmp := filepath.Join(w.dir, fmt.Sprintf(".%s.tmp", ref.name))
	if err := os.WriteFile(tmp, w.versionFix(i, next).snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, ref.name+SnapshotExt)); err != nil {
		t.Fatal(err)
	}
	w.version[ref.name] = next
}

// oracleSAM is alignSAM without the test-goroutine dependency: safe to
// call from stress-test worker goroutines, which must not t.Fatal.
func oracleSAM(al *meraligner.Aligner, reads []meraligner.Seq) ([]byte, error) {
	res, err := al.Align(context.Background(), reads, qopts())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := meraligner.WriteSAM(&buf, res, al.Targets(), reads); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// heldPin is a pinned handle plus the oracle of the version it pinned.
type heldPin struct {
	h      *Handle
	oracle *meraligner.Aligner
	ref    string
}

func TestPropertyRandomOpsMatchModel(t *testing.T) {
	// Bounded, the budget holds roughly two of the three fixtures and forces
	// steady evictions. Unlimited (Budget 0), the model also tracks which
	// version of each reference is open and requires Stats to match it.
	for run := range 6 {
		seed, unlimited := int64(run%3+1), run >= 3
		name := fmt.Sprintf("seed=%d", seed)
		if unlimited {
			name = "unlimited/" + name
		}
		t.Run(name, func(t *testing.T) {
			w := newPropWorld(t)
			rng := rand.New(rand.NewSource(seed))

			// A mapped fixture's ResidentBytes, by fixture name: what the
			// catalog charges for a reference serving that version.
			mapped := make(map[string]int64, len(w.refs))
			for _, r := range w.refs {
				mapped[r.name] = mappedBytes(t, w.dir, r.name)
			}
			perRef := mapped[w.refs[0].name]
			budget := 2*perRef + perRef/2
			if unlimited {
				budget = 0
			}
			c, err := New(Options{Dir: w.dir, Budget: budget, Threads: 2, SwapPoll: 0})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// open is the unlimited model's residency: the fixture each
			// acquired reference's open index was mapped from. An Acquire
			// opens (or hot-swaps to) the reference's modeled version; a
			// swap on disk alone changes nothing until the next Acquire.
			open := make(map[string]string)
			acquired := func(i int) { open[w.refs[i].name] = w.versionFix(i, w.version[w.refs[i].name]).name }

			var held []heldPin
			defer func() {
				for _, p := range held {
					p.h.Release()
				}
			}()

			checkBudget := func(step int) {
				st := c.Stats()
				if st.OpenRefs > len(w.refs) {
					t.Fatalf("step %d: %d open refs of %d known", step, st.OpenRefs, len(w.refs))
				}
				if !unlimited {
					if st.ResidentBytes > budget {
						t.Fatalf("step %d: %d resident bytes charged over the %d budget", step, st.ResidentBytes, budget)
					}
					return
				}
				var want int64
				for _, fix := range open {
					want += mapped[fix]
				}
				if st.OpenRefs != len(open) || st.ResidentBytes != want || st.Evictions != 0 || st.Budget != 0 {
					t.Fatalf("step %d: unlimited catalog stats %+v, want %d open refs %v charged %d bytes, no evictions, budget 0",
						step, st, len(open), open, want)
				}
			}

			for step := 0; step < 80; step++ {
				i := rng.Intn(len(w.refs))
				ref := w.refs[i]
				fix := w.versionFix(i, w.version[ref.name])
				lo := rng.Intn(len(fix.ds.Reads) - 8)
				reads := fix.ds.Reads[lo : lo+4+rng.Intn(4)]

				switch op := rng.Intn(10); {
				case op < 5: // query: byte-identical to the modeled version's oracle
					got := acquireSAM(t, c, ref.name, reads)
					acquired(i)
					want := alignSAM(t, fix.oracle, reads)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: %s (version %d) response diverged from its dedicated-aligner oracle", step, ref.name, w.version[ref.name])
					}
				case op < 7: // hot-swap the snapshot file
					w.swap(t, i)
				case op < 9: // pin and hold across future evictions/swaps
					if len(held) >= 4 {
						break
					}
					h, err := c.Acquire(ref.name)
					if err != nil {
						t.Fatalf("step %d: acquire %s: %v", step, ref.name, err)
					}
					acquired(i)
					held = append(held, heldPin{h: h, oracle: fix.oracle, ref: ref.name})
				default: // serve through the oldest held pin, then release it
					if len(held) == 0 {
						break
					}
					p := held[0]
					held = held[1:]
					got := alignSAM(t, p.h.Aligner(), reads)
					want := alignSAM(t, p.oracle, reads)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: pinned %s handle diverged from the oracle of its pinned version", step, p.ref)
					}
					p.h.Release()
				}
				checkBudget(step)
			}

			// Held pins survive catalog Close; new acquires fail typed.
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for _, p := range held {
				got := alignSAM(t, p.h.Aligner(), w.refs[0].ds.Reads[:3])
				want := alignSAM(t, p.oracle, w.refs[0].ds.Reads[:3])
				if !bytes.Equal(got, want) {
					t.Fatalf("pin on %s stopped serving its version's bytes after catalog Close", p.ref)
				}
				p.h.Release()
			}
			held = nil
			if _, err := c.Acquire(w.refs[0].name); !errors.Is(err, ErrCatalogClosed) {
				t.Fatalf("Acquire after Close: got %v, want ErrCatalogClosed", err)
			}
		})
	}
}

// TestPropertyConcurrentSwapEvictStress races queries, hot-swaps, and
// budget evictions across goroutines. Because swap timing is unordered
// relative to each query, the response assertion relaxes to: byte-identical
// to ONE of the reference's two version oracles — never a blend, never an
// error, never a read of a closed index. Run with -race.
func TestPropertyConcurrentSwapEvictStress(t *testing.T) {
	w := newPropWorld(t)
	perRef := mappedBytes(t, w.dir, w.refs[0].name)
	c, err := New(Options{Dir: w.dir, Budget: perRef + perRef/2, Threads: 2, SwapPoll: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Swapper: flips each reference's snapshot back and forth. The model's
	// version map is written under swapMu only by this goroutine; queriers
	// never read it (they accept either version).
	var swapMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for n := 0; n < 12; n++ {
			swapMu.Lock()
			w.swap(t, rng.Intn(len(w.refs)))
			swapMu.Unlock()
		}
	}()

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for n := 0; n < 25; n++ {
				i := rng.Intn(len(w.refs))
				ref := w.refs[i]
				lo := rng.Intn(len(ref.ds.Reads) - 6)
				reads := ref.ds.Reads[lo : lo+5]

				h, err := c.Acquire(ref.name)
				if err != nil {
					fail("goroutine %d: acquire %s: %v", g, ref.name, err)
					return
				}
				got, err := oracleSAM(h.Aligner(), reads)
				h.Release()
				if err != nil {
					fail("goroutine %d: align on %s: %v", g, ref.name, err)
					return
				}
				wantA, errA := oracleSAM(w.versionFix(i, 0).oracle, reads)
				wantB, errB := oracleSAM(w.versionFix(i, 1).oracle, reads)
				if errA != nil || errB != nil {
					fail("goroutine %d: oracle align failed: %v / %v", g, errA, errB)
					return
				}
				if !bytes.Equal(got, wantA) && !bytes.Equal(got, wantB) {
					fail("goroutine %d: %s response matches neither version oracle", g, ref.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Budget pressure must have been exercised whatever the schedule was:
	// the budget holds one and a half of the three equally sized references,
	// so touching each of them in turn evicts at least once.
	for _, ref := range w.refs {
		h, err := c.Acquire(ref.name)
		if err != nil {
			t.Fatalf("acquire %s after stress: %v", ref.name, err)
		}
		h.Release()
	}
	st := c.Stats()
	if budget := perRef + perRef/2; st.ResidentBytes > budget {
		t.Fatalf("%d resident bytes charged over the %d budget after stress", st.ResidentBytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("touching all three references under a 1.5-reference budget evicted nothing")
	}
}
