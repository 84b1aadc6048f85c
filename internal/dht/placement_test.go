package dht

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// placed is one occupied slot of a sealed shard: its seed and what a lookup
// of the seed answers.
type placed struct {
	seed kmer.Kmer
	res  LookupResult
}

// shardSeeds lists the seeds of fs's occupied slots, in slot order.
func shardSeeds(fs *flatShard) []placed {
	var ps []placed
	for i := range fs.slots {
		if e := &fs.slots[i]; e.b != 0 {
			ps = append(ps, placed{fs.seed(i), fs.result(e)})
		}
	}
	return ps
}

// writeInOrder is a test-only table writer: a shard of fs's size holding
// the seeds of ps, inserted in the order given — each probed from its home
// slot, its list appended to the arena as it is placed. In seed order this
// is the layout the drain wrote before it placed seeds in home-slot order.
func writeInOrder(fs *flatShard, ps []placed) flatShard {
	out := flatShard{shift: fs.shift, slots: make([]flatSlot, len(fs.slots)), locs: make([]Loc, len(fs.locs))}
	if fs.hi != nil {
		out.hi = make([]uint64, len(fs.hi))
	}
	mask, off := len(out.slots)-1, 0
	for _, p := range ps {
		i := int(p.seed.Hash() * fibMix >> out.shift)
		for out.slots[i].b != 0 {
			i = (i + 1) & mask
		}
		e := &out.slots[i]
		e.key = p.seed.Lo
		if out.hi != nil {
			out.hi[i] = p.seed.Hi
		}
		n := p.res.Len()
		out.st.add(n, p.res.Count)
		if p.res.Count == 1 {
			l := p.res.At(0)
			e.a, e.b = uint32(l.Frag), uint32(l.Off)<<2|slotOne
			if l.RC {
				e.b |= slotRC
			}
			continue
		}
		e.a, e.b = uint32(off), uint32(n)<<2
		if int(p.res.Count) > n {
			e.b |= slotCounted
			out.locs[off].Off = p.res.Count
			off++
		}
		off += copy(out.locs[off:], p.res.Locs)
	}
	return out
}

// rewritten returns a sealed copy of sx whose every shard is rewritten by
// writeInOrder, its seeds in the order order puts them in.
func rewritten(sx *Sharded, order func([]placed)) *Sharded {
	r := &Sharded{cfg: sx.cfg, singleCopy: sx.singleCopy, numFragments: sx.numFragments, flat: make([]flatShard, len(sx.flat))}
	for s := range sx.flat {
		ps := shardSeeds(&sx.flat[s])
		order(ps)
		r.flat[s] = writeInOrder(&sx.flat[s], ps)
	}
	r.sealed.Store(true)
	return r
}

// checkSameAnswers fails unless got answers every probe exactly as want
// does — hit or miss, locations, order and count — and reports the same
// Stats, ResidentBytes and PartitionFingerprint.
func checkSameAnswers(t *testing.T, label string, want, got *Sharded, probes []kmer.Kmer) {
	t.Helper()
	for _, s := range probes {
		wr, wok := want.Lookup(s)
		gr, gok := got.Lookup(s)
		if wok != gok || !reflect.DeepEqual(resultLocs(wr), resultLocs(gr)) || wr.Count != gr.Count {
			t.Fatalf("%s seed %v: lookup %v/%v count %d, want %v/%v count %d", label, s, resultLocs(gr), gok, gr.Count, resultLocs(wr), wok, wr.Count)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: Stats %+v, want %+v", label, g, w)
	}
	if g, w := got.ResidentBytes(), want.ResidentBytes(); g != w {
		t.Fatalf("%s: ResidentBytes %d, want %d", label, g, w)
	}
	for _, count := range []int{1, 3} {
		g, _ := got.PartitionFingerprint(count)
		if w, _ := want.PartitionFingerprint(count); g != w {
			t.Fatalf("%s: PartitionFingerprint(%d) %x, want %x", label, count, g, w)
		}
	}
}

// TestPropertyPlacementOrderInvisible: which slot of a probe cluster a seed
// takes, and the order of the arena, are the writer's choice and nothing a
// reader can observe. At every k on both sides of the one-word seed, for a
// built table and a Restrict carve (lists behind count words), the drain's
// home-slot-order table is byte for byte what the test writer produces
// inserting in (slot key, seed) order; and tables written in seed order
// (the earlier drain's layout) and in shuffled orders answer every present
// and absent seed identically, report the same Stats, ResidentBytes and
// PartitionFingerprint, and do so again after a snapshot round trip.
func TestPropertyPlacementOrderInvisible(t *testing.T) {
	const numFrags = 24
	rng := rand.New(rand.NewSource(48))
	for _, k := range []int{19, 31, 32, 33, 51} {
		es := randomEntries(rng.Int63(), numFrags, 150, 1200, k)
		sx := buildSharded(t, ShardedConfig{K: k, S: 32, Shards: 5}, es, numFrags, 3)
		sx.Seal()
		oracle := naiveOracle(es)
		probes := absentSeeds(rng, oracle, k, 200)
		for s := range oracle {
			probes = append(probes, s)
		}
		carve, err := sx.Restrict(numFrags/3, numFrags)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			sx   *Sharded
		}{{"built", sx}, {"carve", carve}} {
			label := fmt.Sprintf("k=%d %s", k, tc.name)
			slotOrder := rewritten(tc.sx, func(ps []placed) {
				slices.SortFunc(ps, func(a, b placed) int {
					return oracleLess(SeedEntry{Seed: a.seed, key: slotKey(a.seed.Hash())}, SeedEntry{Seed: b.seed, key: slotKey(b.seed.Hash())})
				})
			})
			for s := range tc.sx.flat {
				got, want := &tc.sx.flat[s], &slotOrder.flat[s]
				if !bytes.Equal(rawBytes(got.slots), rawBytes(want.slots)) || !slices.Equal(got.hi, want.hi) ||
					!bytes.Equal(rawBytes(got.locs), rawBytes(want.locs)) || got.st != want.st {
					t.Fatalf("%s shard %d: the drain's table is not the one written in (slot key, seed) order", label, s)
				}
			}
			type variant struct {
				name string
				sx   *Sharded
			}
			variants := []variant{
				{"drain", tc.sx},
				{"seed order", rewritten(tc.sx, func(ps []placed) {
					slices.SortFunc(ps, func(a, b placed) int { return oracleLess(SeedEntry{Seed: a.seed}, SeedEntry{Seed: b.seed}) })
				})},
			}
			for i := range 3 {
				variants = append(variants, variant{fmt.Sprintf("shuffle %d", i), rewritten(tc.sx, func(ps []placed) {
					rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				})})
			}
			for _, v := range variants {
				checkSameAnswers(t, label+" "+v.name, tc.sx, v.sx, probes)
				checkSameAnswers(t, label+" "+v.name+" mapped", tc.sx, snapshotRoundTrip(t, v.sx), probes)
			}
		}
	}
}

// TestPlacementWrapsAround: a probe cluster that runs past the last slot of
// a table continues at slot 0, and seeds homed at the front of the table —
// placed after it, in home-slot order — probe past its wrapped part. Five
// seeds homed at the last of 16 slots and three homed at slot 0 must take
// slots 15, 0..3 and 4..6, and every one must look up to its location.
func TestPlacementWrapsAround(t *testing.T) {
	const k, bits = 25, minFlatBits
	rng := rand.New(rand.NewSource(4))
	var es []SeedEntry
	for _, want := range []struct{ home, n int }{{1<<bits - 1, 5}, {0, 3}} {
		for found := 0; found < want.n; {
			s := randomKmer(rng, k)
			if int(slotKey(s.Hash())>>(32-bits)) == want.home {
				es = append(es, SeedEntry{Seed: s, Loc: Loc{Frag: int32(len(es)), Off: int32(found)}})
				found++
			}
		}
	}
	SortEntries(es)
	fs := newFlatShard(0, k, es, nil)
	if len(fs.slots) != 1<<bits {
		t.Fatalf("%d slots for %d seeds, want %d", len(fs.slots), len(es), 1<<bits)
	}
	var taken []int
	for i := range fs.slots {
		if fs.slots[i].b != 0 {
			taken = append(taken, i)
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 15}; !slices.Equal(taken, want) {
		t.Fatalf("occupied slots %v, want %v", taken, want)
	}
	for _, e := range es {
		res, ok := fs.lookup(e.Seed, e.Seed.Hash())
		if !ok || res.Len() != 1 || res.At(0) != e.Loc {
			t.Fatalf("seed homed at %d: lookup %v/%v, want %v", e.key>>(32-bits), resultLocs(res), ok, e.Loc)
		}
	}
}
