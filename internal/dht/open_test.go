package dht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// openMappedSerial is the reference form of OpenMapped: one goroutine walks
// the shards in order, and every slot through a switch on its form, and
// names the first fault it meets. It is the oracle OpenMapped is held to —
// the same verdict, the same error text, the same Stats and ResidentBytes —
// by TestOpenMappedMatchesSerialWalk and FuzzOpenMapped.
func openMappedSerial(blob []byte) (*Sharded, error) {
	if len(blob) < snapHeaderSize {
		return nil, fmt.Errorf("dht: snapshot blob of %d bytes is smaller than the %d-byte header", len(blob), snapHeaderSize)
	}
	if v := binary.LittleEndian.Uint32(blob[0:]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrTableVersion, v, snapVersion)
	}
	k := int(binary.LittleEndian.Uint32(blob[4:]))
	shards := int(binary.LittleEndian.Uint32(blob[8:]))
	numFragments := int64(binary.LittleEndian.Uint64(blob[16:]))
	singleCopyOff := int64(binary.LittleEndian.Uint64(blob[24:]))
	dirOff := int64(binary.LittleEndian.Uint64(blob[32:]))
	if k <= 0 || k > kmer.MaxK {
		return nil, fmt.Errorf("dht: snapshot seed length %d out of range 1..%d", k, kmer.MaxK)
	}
	if capped := binary.LittleEndian.Uint32(blob[12:]); capped != 0 {
		return nil, fmt.Errorf("%w (header word 12 is %d)", ErrCappedTable, capped)
	}
	if shards <= 0 || shards > maxSnapShards {
		return nil, fmt.Errorf("dht: snapshot shard count %d out of range", shards)
	}
	if numFragments < 0 || numFragments > int64(len(blob)) {
		return nil, fmt.Errorf("dht: snapshot fragment count %d out of range", numFragments)
	}
	singleCopy, err := viewAt[int32](blob, singleCopyOff, int(numFragments))
	if err != nil {
		return nil, fmt.Errorf("dht: snapshot single-copy flags: %w", err)
	}
	dirBytes, err := sliceAt(blob, dirOff, int64(shards)*snapDirEntry)
	if err != nil {
		return nil, fmt.Errorf("dht: snapshot shard directory: %w", err)
	}

	sx := &Sharded{
		cfg:          ShardedConfig{K: k, Shards: shards},
		flat:         make([]flatShard, shards),
		singleCopy:   singleCopy,
		numFragments: int(numFragments),
	}
	for i := 0; i < shards; i++ {
		e := dirBytes[i*snapDirEntry:]
		shift := uint(binary.LittleEndian.Uint32(e[0:]))
		slotsLen := int64(binary.LittleEndian.Uint64(e[8:]))
		slotsOff := int64(binary.LittleEndian.Uint64(e[16:]))
		locsLen := int64(binary.LittleEndian.Uint64(e[24:]))
		locsOff := int64(binary.LittleEndian.Uint64(e[32:]))
		hiOff := int64(binary.LittleEndian.Uint64(e[40:]))
		if slotsLen <= 0 || slotsLen&(slotsLen-1) != 0 {
			return nil, fmt.Errorf("dht: snapshot shard %d: slot count %d is not a power of two", i, slotsLen)
		}
		if want := uint(64 - bits.Len64(uint64(slotsLen)-1)); shift != want {
			return nil, fmt.Errorf("dht: snapshot shard %d: shift %d does not match %d slots", i, shift, slotsLen)
		}
		slots, err := viewAt[flatSlot](blob, slotsOff, int(slotsLen))
		if err != nil {
			return nil, fmt.Errorf("dht: snapshot shard %d slots: %w", i, err)
		}
		locs, err := viewAt[Loc](blob, locsOff, int(locsLen))
		if err != nil {
			return nil, fmt.Errorf("dht: snapshot shard %d locations: %w", i, err)
		}
		var hi []uint64
		if k > 32 {
			if hi, err = viewAt[uint64](blob, hiOff, int(slotsLen)); err != nil {
				return nil, fmt.Errorf("dht: snapshot shard %d seed Hi words: %w", i, err)
			}
		} else if hiOff != 0 {
			return nil, fmt.Errorf("dht: snapshot shard %d: seed Hi words at %d for K = %d", i, hiOff, k)
		}
		// Every slot's fragment, list and count word must stay inside this
		// shard's arena so sealed lookups can decode them unchecked — and
		// at least one slot must be empty, because lookup's linear probe
		// terminates only on an empty slot or a seed match (newFlatShard
		// guarantees load <= 0.75; a crafted full table would make lookups of
		// absent seeds spin forever). The same scan tallies the shard's Stats
		// share, as newFlatShard does for a built shard.
		var st shardStats
		for j := range slots {
			a, b := int64(slots[j].a), slots[j].b
			switch {
			case b == 0:
				continue
			case b&slotOne != 0:
				if a >= numFragments {
					return nil, fmt.Errorf("dht: snapshot shard %d slot %d: fragment %d outside 0..%d", i, j, a, numFragments-1)
				}
				st.add(1, 1)
			default:
				n, start := int64(b>>2), a
				if b&slotCounted != 0 {
					start++ // past the count word
				}
				if n == 0 || start+n > locsLen {
					return nil, fmt.Errorf("dht: snapshot shard %d slot %d: list of %d at %d outside arena of %d", i, j, n, start, locsLen)
				}
				count := int32(n)
				if start > a {
					if count = locs[a].Off; int64(count) < n {
						return nil, fmt.Errorf("dht: snapshot shard %d slot %d: count word %d below the list's %d locations", i, j, count, n)
					}
				}
				st.add(int(n), count)
			}
		}
		if int64(st.seeds) == slotsLen {
			return nil, fmt.Errorf("dht: snapshot shard %d: table has no empty slot (%d of %d occupied)", i, st.seeds, slotsLen)
		}
		// Fragment IDs feed array indexing downstream (SingleCopy, the
		// aligner's fragment->target resolution), so a crafted arena must
		// not smuggle one past the open-time check. A count word's fragment
		// field is zero, so the same check covers it.
		for j := range locs {
			if f := int64(locs[j].Frag); f < 0 || f >= numFragments {
				return nil, fmt.Errorf("dht: snapshot shard %d location %d: fragment %d outside 0..%d", i, j, locs[j].Frag, numFragments-1)
			}
		}
		sx.flat[i] = flatShard{shift: shift, slots: slots, hi: hi, locs: locs, st: st}
	}
	sx.sealed.Store(true)
	return sx, nil
}

// openBoth opens blob with OpenMapped and with the oracle, and fails t
// unless they agree: the same verdict and error text, and when they accept,
// the same Stats and ResidentBytes. It returns what OpenMapped returned.
func openBoth(t testing.TB, label string, blob []byte) (*Sharded, error) {
	t.Helper()
	got, err := OpenMapped(alignedCopy(blob))
	want, werr := openMappedSerial(alignedCopy(blob))
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: OpenMapped error %v, the serial walk's %v", label, err, werr)
	}
	if err != nil {
		return nil, err
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: Stats %+v, the serial walk's %+v", label, g, w)
	}
	if g, w := got.ResidentBytes(), want.ResidentBytes(); g != w {
		t.Fatalf("%s: ResidentBytes %d, the serial walk's %d", label, g, w)
	}
	return got, nil
}

// sameOpen holds OpenMapped to the oracle on blob (openBoth) at GOMAXPROCS 1
// and 4, so that shards are validated both in order and on goroutines, and
// reports whether the table was accepted.
func sameOpen(t *testing.T, label string, blob []byte) bool {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var err error
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err = openBoth(t, fmt.Sprintf("%s, GOMAXPROCS %d", label, procs), blob)
	}
	return err == nil
}

// snapShard locates shard i's arrays in a snapshot blob through its
// directory entry.
type snapShard struct {
	slotsOff, slotsLen, locsOff, locsLen uint64
}

func shardOf(blob []byte, i int) snapShard {
	e := blob[binary.LittleEndian.Uint64(blob[32:])+uint64(i)*snapDirEntry:]
	return snapShard{
		slotsLen: binary.LittleEndian.Uint64(e[8:]), slotsOff: binary.LittleEndian.Uint64(e[16:]),
		locsLen: binary.LittleEndian.Uint64(e[24:]), locsOff: binary.LittleEndian.Uint64(e[32:]),
	}
}

// mutateWord overwrites one slot or arena word of shard i with a value
// chosen to land on, next to or far from a validation boundary, and names
// what it did. The slot is the shard's first, its last, an occupied one or
// any one.
func mutateWord(rng *rand.Rand, blob []byte, i int, numFrags uint32) string {
	sh := shardOf(blob, i)
	slot := func(j uint64) []byte { return blob[sh.slotsOff+j*FlatEntryWireBytes:] }
	var j uint64
	switch rng.Intn(4) {
	case 0:
	case 1:
		j = sh.slotsLen - 1
	case 2:
		for tries := 0; tries < 64; tries++ {
			if j = uint64(rng.Int63n(int64(sh.slotsLen))); binary.LittleEndian.Uint32(slot(j)[12:]) != 0 {
				break
			}
		}
	default:
		j = uint64(rng.Int63n(int64(sh.slotsLen)))
	}
	s := slot(j)
	a, b := binary.LittleEndian.Uint32(s[8:]), binary.LittleEndian.Uint32(s[12:])
	values := []uint32{
		0, 1, numFrags - 1, numFrags, uint32(sh.locsLen), uint32(sh.locsLen) - 1,
		rng.Uint32(), rng.Uint32() & 0xff, 1 << uint(rng.Intn(32)),
	}
	v := values[rng.Intn(len(values))]
	switch w := rng.Intn(5); {
	case w == 0 && sh.locsLen > 0:
		// An arena word: a location's fragment, or a count word's count.
		l := uint64(rng.Int63n(int64(sh.locsLen)))
		field := uint64(rng.Intn(2)) * 4
		binary.LittleEndian.PutUint32(blob[sh.locsOff+l*LocWireBytes+field:], v)
		return fmt.Sprintf("shard %d location %d word %d = %d", i, l, field/4, v)
	case w == 1:
		binary.LittleEndian.PutUint32(s[8:], v)
		return fmt.Sprintf("shard %d slot %d a = %d (b %#x)", i, j, v, b)
	case w == 2:
		// A b word of another form: empty, inline, counted or plain list.
		forms := []uint32{0, v<<2 | slotOne, v<<2 | slotOne | slotRC, v<<2 | slotCounted, v << 2, v &^ 3, v >> 2 << 2}
		nb := forms[rng.Intn(len(forms))]
		binary.LittleEndian.PutUint32(s[12:], nb)
		return fmt.Sprintf("shard %d slot %d b = %#x (a %d)", i, j, nb, a)
	case w == 3:
		nb := b ^ 1<<uint(rng.Intn(32))
		binary.LittleEndian.PutUint32(s[12:], nb)
		return fmt.Sprintf("shard %d slot %d b ^= bit -> %#x (a %d)", i, j, nb, a)
	default:
		// A plausible edit: the slot becomes one location of a fragment
		// in range, which the table may well accept.
		na := uint32(rng.Intn(int(numFrags)))
		binary.LittleEndian.PutUint32(s[8:], na)
		binary.LittleEndian.PutUint32(s[12:], uint32(rng.Intn(1000))<<2|slotOne)
		return fmt.Sprintf("shard %d slot %d = one location in fragment %d", i, j, na)
	}
}

// fillShard marks every empty slot of shard i occupied by one location in
// fragment 0, so that only the empty-slot check can refuse the table.
func fillShard(blob []byte, i int) {
	sh := shardOf(blob, i)
	for j := uint64(0); j < sh.slotsLen; j++ {
		s := blob[sh.slotsOff+j*FlatEntryWireBytes:]
		if binary.LittleEndian.Uint32(s[12:]) == 0 {
			binary.LittleEndian.PutUint32(s[8:], 0)
			binary.LittleEndian.PutUint32(s[12:], slotOne)
		}
	}
}

// TestOpenMappedMatchesSerialWalk: OpenMapped gives the serial walk's verdict
// and error text, and when it accepts its Stats and ResidentBytes, on built
// tables at k = 19, 31, 32, 33 and 51 over 1, 4 and 64 shards — whole,
// carved (Restrict: lists behind count words) and of one-location seeds
// alone (no list slot at all) — untouched and under seeded
// damage — slot a and b words and arena words of the first, a middle and
// the last shard, at a shard's first and last slot, two faults in different
// shards, and a shard with no empty slot — at GOMAXPROCS 1 and 4.
func TestOpenMappedMatchesSerialWalk(t *testing.T) {
	const numFrags = 40
	rng := rand.New(rand.NewSource(50))
	mutations, accepted, refused := 0, 0, 0
	for _, k := range []int{19, 31, 32, 33, 51} {
		for _, shards := range []int{1, 4, 64} {
			es := randomEntries(rng.Int63(), numFrags, 100, 3000, k)
			sx := buildSharded(t, ShardedConfig{K: k, S: 64, Shards: shards}, es, numFrags, 2)
			sx.Seal()
			carve, err := sx.Restrict(10, 30)
			if err != nil {
				t.Fatal(err)
			}
			// A table of inline slots alone: every seed stored once.
			seen := map[kmer.Kmer]bool{}
			var once []SeedEntry
			for _, e := range es {
				if !seen[e.Seed] {
					seen[e.Seed] = true
					once = append(once, e)
				}
			}
			singles := buildSharded(t, ShardedConfig{K: k, S: 64, Shards: shards}, once, numFrags, 2)
			singles.Seal()
			for _, tbl := range []struct {
				name string
				src  *Sharded
			}{{"whole", sx}, {"carve", carve}, {"singles", singles}} {
				name, src := tbl.name, tbl.src
				var buf bytes.Buffer
				if _, err := src.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				good := buf.Bytes()
				label := fmt.Sprintf("k=%d shards=%d %s", k, shards, name)
				if !sameOpen(t, label, good) {
					t.Fatalf("%s: the unmutated table was refused", label)
				}
				nf := uint32(src.numFragments)
				targets := []int{0, shards / 2, shards - 1}
				tally := func(ok bool) {
					mutations++
					if ok {
						accepted++
					} else {
						refused++
					}
				}
				for m := 0; m < 8; m++ {
					blob := append([]byte(nil), good...)
					what := mutateWord(rng, blob, targets[rng.Intn(len(targets))], nf)
					tally(sameOpen(t, label+": "+what, blob))
				}
				if shards > 1 {
					// Two faults, in different shards: the lower one is named.
					blob := append([]byte(nil), good...)
					lo := rng.Intn(shards - 1)
					hi := lo + 1 + rng.Intn(shards-1-lo)
					what := mutateWord(rng, blob, hi, nf) + " and " + mutateWord(rng, blob, lo, nf)
					tally(sameOpen(t, label+": "+what, blob))
				}
				blob := append([]byte(nil), good...)
				fillShard(blob, targets[rng.Intn(len(targets))])
				tally(sameOpen(t, label+": a shard with no empty slot", blob))
			}
		}
	}
	t.Logf("%d mutated tables: %d accepted, %d refused", mutations, accepted, refused)
	if mutations < 200 || accepted < 20 || refused < 100 {
		t.Fatalf("%d mutated tables (%d accepted, %d refused): too few to compare the walks", mutations, accepted, refused)
	}
}

// BenchmarkOpenMapped times OpenMapped on a table of ~2 M slots (16 shards,
// about 57 % full, one seed in a hundred stored as a list: serve_open's
// reference has 16 shards of 131,072 slots, 53 % full, one seed in 119 a
// list) at k = 31 and 51, and
// reports ns/slot. The blob is in memory, so this is the validation walk
// alone: no disk, no page faults, no checksums.
func BenchmarkOpenMapped(b *testing.B) {
	const numFrags, distinct, shards = 1000, 1_200_000, 16
	for _, k := range []int{31, 51} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			sx, err := NewSharded(ShardedConfig{K: k, Shards: shards}, numFrags, distinct+distinct/50, 1)
			if err != nil {
				b.Fatal(err)
			}
			bd := sx.NewBuilder()
			off := int32(0)
			for i := 0; i < distinct; i++ {
				s := randomKmer(rng, k)
				copies := 1
				if i%100 == 0 {
					copies = 3
				}
				for c := 0; c < copies; c++ {
					off++
					bd.Add(SeedEntry{Seed: s, Loc: Loc{Frag: int32(rng.Intn(numFrags)), Off: off % 1_000_000}})
				}
			}
			bd.Flush()
			for s := 0; s < shards; s++ {
				sx.DrainShard(s)
			}
			sx.Seal()
			var buf bytes.Buffer
			if _, err := sx.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
			blob := alignedCopy(buf.Bytes())
			slots := 0
			for i := range sx.flat {
				slots += len(sx.flat[i].slots)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := OpenMapped(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
		})
	}
}
