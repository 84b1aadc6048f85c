// Package upc simulates the PGAS execution environment the paper's UPC code
// runs on: a distributed-memory machine of N nodes x PPN cores, a partitioned
// global address space with one-sided puts/gets and global atomics, and a
// bulk-synchronous phase structure.
//
// The simulator executes the *real* algorithms against real in-process data
// structures — hash tables are actually built, caches actually hit or miss,
// Smith-Waterman actually runs — while synthesizing *time* from a calibrated
// cost model charged to per-thread virtual clocks. Message counts, byte
// volumes, atomics and cache statistics are therefore measured, not modeled;
// only their conversion to seconds is synthetic. Phase wall time is the
// maximum thread clock within the phase (threads barrier between phases, as
// in the UPC original), additionally lower-bounded by per-node NIC capacity
// and aggregate filesystem bandwidth, which is how congestion enters.
//
// Default constants approximate NERSC's Edison (Cray XC30, §VI-A): 24-core
// nodes, ~1 microsecond one-sided remote latency on Aries, multi-GB/s links.
package upc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// MachineConfig describes the simulated machine and its cost model. All
// times are in seconds, bandwidths in bytes/second.
type MachineConfig struct {
	Threads int // total UPC threads (the paper's "cores")
	PPN     int // threads per node (Edison: 24)

	// Communication costs.
	RemoteLatency float64 // one-sided get/put to another node
	NodeLatency   float64 // shared-memory access to another thread on-node
	LocalLatency  float64 // access to the thread's own partition
	LinkBandwidth float64 // per-thread injection bandwidth, off-node
	NICBandwidth  float64 // per-node NIC aggregate bandwidth (congestion)
	AtomicLatency float64 // global atomic (fetch-add) on a remote location

	// Computation costs, charged per measured event.
	SeedExtractCost float64 // per seed extracted from a target/query
	HashCost        float64 // per seed hashed (djb2 + owner computation)
	BufferCopyCost  float64 // per seed staged into an aggregation buffer
	InsertCost      float64 // per seed drained into a local bucket
	LookupCost      float64 // per local hash-table probe
	MemcmpCost      float64 // per byte of exact-match comparison
	SWCellCost      float64 // per Smith-Waterman DP cell
	SWSetupCost     float64 // per Smith-Waterman invocation (query profile)

	// I/O model: a shared parallel filesystem. Per-client bandwidth scales
	// until the aggregate saturates at FSPeakBandwidth (Lustre-like).
	FSClientBandwidth float64 // per-thread streaming bandwidth
	FSPeakBandwidth   float64 // filesystem aggregate ceiling
	FSOpLatency       float64 // per open/seek

	// Workers bounds real goroutines executing simulated threads.
	// 0 means runtime.NumCPU(). Use 1 for fully deterministic runs.
	Workers int

	// Seed for per-thread RNGs (load-balance permutations, etc.).
	Seed int64
}

// Edison returns a MachineConfig approximating a Cray XC30 partition with
// the given total thread count, 24 threads per node.
func Edison(threads int) MachineConfig {
	return MachineConfig{
		Threads: threads,
		PPN:     24,

		RemoteLatency: 1.1e-6,
		NodeLatency:   9e-8,
		LocalLatency:  4e-9,
		LinkBandwidth: 6.0e9,
		NICBandwidth:  14.0e9,
		AtomicLatency: 1.3e-6,

		// Per-event compute costs. Calibrated so the compute/communication
		// balance reproduces the paper's measured optimization ratios
		// (Fig 8: ~4.7x from aggregating stores; Fig 10: ~3x from exact
		// matching): UPC runtime + memory-system overheads make per-seed
		// work on Edison far heavier than a bare hash would suggest.
		SeedExtractCost: 6e-8,
		HashCost:        8e-8,
		BufferCopyCost:  4e-8,
		InsertCost:      1.5e-7,
		LookupCost:      1.2e-7,
		MemcmpCost:      1.0e-9,
		SWCellCost:      9e-10, // striped SSW throughput, ~1 cell/ns
		SWSetupCost:     1.5e-6,

		FSClientBandwidth: 3.0e8,
		FSPeakBandwidth:   4.8e10, // ~48 GB/s Lustre scratch
		FSOpLatency:       2e-4,

		Seed: 42,
	}
}

// Validate reports configuration errors.
func (c MachineConfig) Validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("upc: Threads must be positive, got %d", c.Threads)
	}
	if c.PPN <= 0 {
		return fmt.Errorf("upc: PPN must be positive, got %d", c.PPN)
	}
	return nil
}

// Nodes returns the number of nodes the thread count occupies.
func (c MachineConfig) Nodes() int { return (c.Threads + c.PPN - 1) / c.PPN }

// NodeOf returns the node hosting a thread.
func (c MachineConfig) NodeOf(thread int) int { return thread / c.PPN }

// Counters tallies the communication and computation events of one thread.
type Counters struct {
	MsgsRemote  int64 // off-node one-sided operations
	MsgsNode    int64 // on-node (different thread) accesses
	MsgsLocal   int64 // own-partition accesses
	BytesRemote int64
	BytesNode   int64
	Atomics     int64
	SWCells     int64
	SWCalls     int64
	MemcmpBytes int64
	SeedLookups int64
	IOBytes     int64
	IOOps       int64
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.MsgsRemote += o.MsgsRemote
	c.MsgsNode += o.MsgsNode
	c.MsgsLocal += o.MsgsLocal
	c.BytesRemote += o.BytesRemote
	c.BytesNode += o.BytesNode
	c.Atomics += o.Atomics
	c.SWCells += o.SWCells
	c.SWCalls += o.SWCalls
	c.MemcmpBytes += o.MemcmpBytes
	c.SeedLookups += o.SeedLookups
	c.IOBytes += o.IOBytes
	c.IOOps += o.IOOps
}

// Thread is one simulated UPC thread. Methods charge the cost model; the
// caller performs the real work against real data structures.
type Thread struct {
	ID   int
	Node int

	// Phase-local virtual clock components (seconds since the last barrier).
	Comp float64
	Comm float64
	IO   float64

	Counters Counters
	Rng      *rand.Rand

	cfg *MachineConfig
}

// Clock returns the thread's virtual time within the current phase.
func (t *Thread) Clock() float64 { return t.Comp + t.Comm + t.IO }

// Compute charges local computation time.
func (t *Thread) Compute(sec float64) { t.Comp += sec }

// chargeAccess charges one one-sided access of n bytes to owner's partition.
func (t *Thread) chargeAccess(owner, n int) {
	switch {
	case owner == t.ID:
		t.Comm += t.cfg.LocalLatency
		t.Counters.MsgsLocal++
	case t.cfg.NodeOf(owner) == t.Node:
		t.Comm += t.cfg.NodeLatency + float64(n)/t.cfg.NICBandwidth
		t.Counters.MsgsNode++
		t.Counters.BytesNode += int64(n)
	default:
		t.Comm += t.cfg.RemoteLatency + float64(n)/t.cfg.LinkBandwidth
		t.Counters.MsgsRemote++
		t.Counters.BytesRemote += int64(n)
	}
}

// Get charges a one-sided read of n bytes from owner's partition.
func (t *Thread) Get(owner, n int) { t.chargeAccess(owner, n) }

// Put charges a one-sided write of n bytes into owner's partition.
func (t *Thread) Put(owner, n int) { t.chargeAccess(owner, n) }

// Atomic charges a global atomic (e.g. atomic_fetchadd) on owner's partition.
func (t *Thread) Atomic(owner int) {
	t.Counters.Atomics++
	if owner == t.ID {
		t.Comm += t.cfg.LocalLatency
		return
	}
	if t.cfg.NodeOf(owner) == t.Node {
		t.Comm += t.cfg.NodeLatency
		return
	}
	t.Comm += t.cfg.AtomicLatency
}

// ReadFile charges a parallel-filesystem read of n bytes.
func (t *Thread) ReadFile(n int) {
	t.IO += t.cfg.FSOpLatency + float64(n)/t.cfg.FSClientBandwidth
	t.Counters.IOBytes += int64(n)
	t.Counters.IOOps++
}

// SameNode reports whether other is on this thread's node.
func (t *Thread) SameNode(other int) bool { return t.cfg.NodeOf(other) == t.Node }

// NewStandaloneThread returns a thread usable outside RunPhase — for unit
// tests and micro-benchmarks that exercise cost-charged code paths directly.
func NewStandaloneThread(cfg MachineConfig, id int) *Thread {
	if cfg.PPN <= 0 {
		cfg.PPN = 1
	}
	return &Thread{
		ID:   id,
		Node: cfg.NodeOf(id),
		Rng:  rand.New(rand.NewSource(cfg.Seed + int64(id)*1_000_003)),
		cfg:  &cfg,
	}
}

// PhaseStat records one bulk-synchronous phase.
type PhaseStat struct {
	Name string
	Wall float64 // max thread clock, NIC- and FS-bounded

	// RealWall is the host wall-clock time the phase took to simulate.
	RealWall float64

	MaxComp, AvgComp float64
	MinComp          float64
	MaxComm, AvgComm float64
	MaxIO, AvgIO     float64
	MaxClock         float64 // max per-thread total, before NIC/FS bounds
	MinClock         float64
	AvgClock         float64

	NICBound float64 // per-node NIC lower bound on the phase
	FSBound  float64 // filesystem aggregate lower bound

	Counters Counters // summed over threads
}

// Machine is the simulated PGAS machine.
type Machine struct {
	Cfg    MachineConfig
	phases []PhaseStat
	total  Counters
}

// NewMachine validates cfg and returns a machine ready to run phases.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return &Machine{Cfg: cfg}, nil
}

// MustNewMachine is NewMachine that panics on invalid configuration.
func MustNewMachine(cfg MachineConfig) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// RunPhase executes fn once per simulated thread on a bounded worker pool,
// then barriers: the phase's wall time is the slowest thread's virtual
// clock, lower-bounded by per-node NIC time and filesystem aggregate time.
// It returns the recorded statistics for the phase.
func (m *Machine) RunPhase(name string, fn func(t *Thread)) PhaseStat {
	start := time.Now()
	n := m.Cfg.Threads
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = &Thread{
			ID:   i,
			Node: m.Cfg.NodeOf(i),
			Rng:  rand.New(rand.NewSource(m.Cfg.Seed + int64(i)*1_000_003)),
			cfg:  &m.Cfg,
		}
	}

	workers := m.Cfg.Workers
	if workers > n {
		workers = n
	}
	var next int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	nextIdx := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := int(next)
		next++
		return i
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := nextIdx()
				if i >= n {
					return
				}
				fn(threads[i])
			}
		}()
	}
	wg.Wait()

	stat := PhaseStat{Name: name, MinComp: -1, MinClock: -1}
	nodeBytes := make([]int64, m.Cfg.Nodes())
	for _, t := range threads {
		clock := t.Clock()
		stat.MaxClock = max(stat.MaxClock, clock)
		if stat.MinClock < 0 || clock < stat.MinClock {
			stat.MinClock = clock
		}
		stat.AvgClock += clock / float64(n)
		stat.MaxComp = max(stat.MaxComp, t.Comp)
		if stat.MinComp < 0 || t.Comp < stat.MinComp {
			stat.MinComp = t.Comp
		}
		stat.AvgComp += t.Comp / float64(n)
		stat.MaxComm = max(stat.MaxComm, t.Comm)
		stat.AvgComm += t.Comm / float64(n)
		stat.MaxIO = max(stat.MaxIO, t.IO)
		stat.AvgIO += t.IO / float64(n)
		stat.Counters.Add(t.Counters)
		nodeBytes[t.Node] += t.Counters.BytesRemote
	}
	for _, b := range nodeBytes {
		stat.NICBound = max(stat.NICBound, float64(b)/m.Cfg.NICBandwidth)
	}
	if stat.Counters.IOBytes > 0 {
		stat.FSBound = float64(stat.Counters.IOBytes) / m.Cfg.FSPeakBandwidth
	}
	stat.Wall = max(stat.MaxClock, stat.NICBound, stat.FSBound)
	stat.RealWall = time.Since(start).Seconds()

	m.phases = append(m.phases, stat)
	m.total.Add(stat.Counters)
	return stat
}

// Phases returns the statistics of every phase run so far, in order.
func (m *Machine) Phases() []PhaseStat { return m.phases }

// Phase returns the first phase with the given name, or false.
func (m *Machine) Phase(name string) (PhaseStat, bool) {
	for _, p := range m.phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

// TotalWall sums the wall times of all phases (the end-to-end runtime).
func (m *Machine) TotalWall() float64 {
	var s float64
	for _, p := range m.phases {
		s += p.Wall
	}
	return s
}

// TotalCounters returns event counts summed over all phases and threads.
func (m *Machine) TotalCounters() Counters { return m.total }

// Summary renders a compact multi-line report of all phases.
func (m *Machine) Summary() string {
	out := fmt.Sprintf("machine: %d threads (%d nodes x %d ppn)\n",
		m.Cfg.Threads, m.Cfg.Nodes(), m.Cfg.PPN)
	for _, p := range m.phases {
		out += fmt.Sprintf("  %-28s wall %10.4fs  comp %10.4fs  comm %10.4fs  io %8.4fs\n",
			p.Name, p.Wall, p.MaxComp, p.MaxComm, p.MaxIO)
	}
	out += fmt.Sprintf("  %-28s wall %10.4fs\n", "TOTAL", m.TotalWall())
	return out
}

// PartitionRange splits count items contiguously over the machine's
// threads and returns the [lo, hi) range owned by thread id — the paper's
// "each processor is assigned a chunk of n/p consecutive queries".
func (c MachineConfig) PartitionRange(count, id int) (lo, hi int) {
	per := count / c.Threads
	rem := count % c.Threads
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// Imbalance summarizes a per-thread load distribution: it returns the
// minimum, maximum, and mean. Used to verify Theorem 1's bound in tests and
// to report Table I.
func Imbalance(loads []float64) (minL, maxL, avg float64) {
	if len(loads) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), loads...)
	sort.Float64s(s)
	for _, v := range s {
		avg += v
	}
	return s[0], s[len(s)-1], avg / float64(len(s))
}
