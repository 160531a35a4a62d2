// Package hier explores the paper's first "promising for further
// research" direction (Section 8): extending the cache schemes "to
// hierarchical structures more amiable to large scale parallel
// processing".
//
// The machine is a two-level hierarchy: clusters of processing elements,
// each with private L1 caches on a cluster-local shared bus, joined by a
// global shared bus through per-cluster adapters. The adapter owns an
// inclusive cluster cache that filters local read misses away from the
// global bus, snoops the global bus to keep the cluster coherent (an
// observed global write invalidates the cluster line and, in the same
// cycle, every L1 copy below it — modeling a combinational hierarchical
// snoop, the two-level analogue of the paper's assumption 5), and
// delegates atomic Test-and-Set cycles to the global bus so locks are
// machine-wide atomic.
//
// Simplifications, documented in DESIGN.md: the L1 caches run the
// write-through-invalidate protocol (so every write is globally
// serialized through the adapter and the cluster cache never holds dirty
// data), and a local transaction that needs the global bus stalls until
// its global transaction completes. The hierarchy's payoff — the cluster
// cache filtering local traffic from the global bus — is measured by the
// fan-out experiment in internal/experiments.
package hier

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/processor"
	"repro/internal/workload"
)

// Config describes a hierarchical machine.
type Config struct {
	// Clusters is the number of clusters on the global bus.
	Clusters int
	// PEsPerCluster is the number of processing elements per cluster.
	PEsPerCluster int
	// L1Lines is each PE's private cache size (power of two).
	L1Lines int
	// ClusterLines is each cluster cache's size (power of two); it should
	// dominate the sum of its L1s for effective filtering.
	ClusterLines int
	// GlobalLatency is extra hold cycles per global transaction.
	GlobalLatency int
	// CheckConsistency enables the read-latest oracle.
	CheckConsistency bool
}

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = 2
	}
	if c.PEsPerCluster == 0 {
		c.PEsPerCluster = 4
	}
	if c.L1Lines == 0 {
		c.L1Lines = 256
	}
	if c.ClusterLines == 0 {
		c.ClusterLines = 2048
	}
	return c
}

// Machine is the assembled two-level multiprocessor.
type Machine struct {
	cfg      Config
	mem      *memory.Memory
	global   *bus.Bus
	clusters []*cluster

	oracle   map[bus.Addr]bus.Word
	pristine map[bus.Addr]bus.Word
	cycle    uint64
	err      error
}

// cluster is one local bus with its PEs and adapter.
type cluster struct {
	id      int
	local   *bus.Bus
	adapter *adapter
	caches  []*cache.Cache
	procs   []*processor.Processor
	slotted []bool
}

// New builds a hierarchical machine. agents[c][p] is the program of PE p
// in cluster c; len(agents) and the inner lengths must match the config.
func New(cfg Config, agents [][]workload.Agent) (*Machine, error) {
	cfg = cfg.withDefaults()
	if len(agents) != cfg.Clusters {
		return nil, fmt.Errorf("hier: %d agent groups for %d clusters", len(agents), cfg.Clusters)
	}
	m := &Machine{
		cfg:      cfg,
		mem:      memory.New(),
		oracle:   make(map[bus.Addr]bus.Word),
		pristine: make(map[bus.Addr]bus.Word),
	}
	m.global = bus.New(recordingMem{m})
	m.global.MemLatency = cfg.GlobalLatency
	for ci := 0; ci < cfg.Clusters; ci++ {
		if len(agents[ci]) != cfg.PEsPerCluster {
			return nil, fmt.Errorf("hier: cluster %d has %d agents, want %d", ci, len(agents[ci]), cfg.PEsPerCluster)
		}
		cl := &cluster{id: ci}
		ad, err := newAdapter(m, ci, cfg.ClusterLines)
		if err != nil {
			return nil, err
		}
		cl.adapter = ad
		cl.local = bus.New(ad)
		m.global.Attach(ci, ad)
		m.global.AttachRequester(ci, ad)
		for pi := 0; pi < cfg.PEsPerCluster; pi++ {
			c, err := cache.New(pi, coherence.New(coherence.KindWriteThrough), cache.Config{Lines: cfg.L1Lines})
			if err != nil {
				return nil, err
			}
			if cfg.CheckConsistency {
				c.OnResolve = m.checkRead
			}
			cl.local.Attach(pi, c)
			cl.local.AttachRequester(pi, c)
			cl.caches = append(cl.caches, c)
			cl.procs = append(cl.procs, processor.New(pi, agents[ci][pi], c))
			cl.slotted = append(cl.slotted, false)
		}
		ad.l1s = cl.caches
		m.clusters = append(m.clusters, cl)
	}
	return m, nil
}

// recordingMem is the global bus's memory port: the real store, with
// pristine values recorded for the oracle fallback.
type recordingMem struct{ m *Machine }

func (r recordingMem) ReadWord(a bus.Addr) bus.Word { return r.m.mem.ReadWord(a) }

func (r recordingMem) WriteWord(a bus.Addr, w bus.Word) {
	if _, seen := r.m.pristine[a]; !seen {
		r.m.pristine[a] = r.m.mem.Peek(a)
	}
	r.m.mem.WriteWord(a, w)
}

// Memory returns the shared main memory.
func (m *Machine) Memory() *memory.Memory { return m.mem }

// Global returns the global bus (for statistics).
func (m *Machine) Global() *bus.Bus { return m.global }

// Local returns cluster ci's local bus.
func (m *Machine) Local(ci int) *bus.Bus { return m.clusters[ci].local }

// Cache returns the L1 of PE p in cluster c.
func (m *Machine) Cache(c, p int) *cache.Cache { return m.clusters[c].caches[p] }

// Proc returns PE p of cluster c.
func (m *Machine) Proc(c, p int) *processor.Processor { return m.clusters[c].procs[p] }

// Cycle returns the cycles executed.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Err returns the first consistency violation.
func (m *Machine) Err() error { return m.err }

// Done reports whether every PE halted and every queue drained.
func (m *Machine) Done() bool {
	for _, cl := range m.clusters {
		if cl.adapter.busy() {
			return false
		}
		for i, p := range cl.procs {
			if !p.Halted() || cl.caches[i].Busy() {
				return false
			}
		}
	}
	return true
}

// latest is the oracle's view of an address.
func (m *Machine) latest(a bus.Addr) bus.Word {
	if v, ok := m.oracle[a]; ok {
		return v
	}
	if v, ok := m.pristine[a]; ok {
		return v
	}
	return m.mem.Peek(a)
}

// checkRead validates an L1 read resolution against the oracle. Writes
// and RMWs fold at their *global* serialization points (foldWrite); only
// reads bind locally.
func (m *Machine) checkRead(info cache.ResolveInfo) {
	if m.err != nil || info.RMW || info.Ev != coherence.EvRead {
		return
	}
	if exp := m.latest(info.Addr); info.Value != exp {
		m.err = fmt.Errorf("hier: consistency violation at cycle %d: read addr %d saw %d, latest written is %d",
			m.cycle, info.Addr, info.Value, exp)
	}
}

// foldWrite records a globally serialized write (or successful RMW set).
func (m *Machine) foldWrite(a bus.Addr, v bus.Word) {
	if m.cfg.CheckConsistency {
		m.oracle[a] = v
	}
}

// checkRMWOld validates a locked read's observed value at its global
// serialization point.
func (m *Machine) checkRMWOld(a bus.Addr, old bus.Word) {
	if !m.cfg.CheckConsistency || m.err != nil {
		return
	}
	if exp := m.latest(a); old != exp {
		m.err = fmt.Errorf("hier: consistency violation at cycle %d: locked read of addr %d saw %d, latest written is %d",
			m.cycle, a, old, exp)
	}
}

// Step executes one cycle: global bus, then every local bus, then every
// PE, then request-line management.
func (m *Machine) Step() error {
	if m.err != nil {
		return m.err
	}
	m.cycle++

	// 1. Global bus: at most one machine-wide transaction.
	if req, res, ok := m.global.Tick(); ok {
		m.clusters[req.Source].adapter.globalCompleted(req, res)
	}

	// 2. Local buses.
	for _, cl := range m.clusters {
		if req, res, ok := cl.local.Tick(); ok {
			c := cl.caches[req.Source]
			if c.BusCompleted(req, res) {
				cl.local.PrioritySlot(req.Source)
			}
			if v, ok := c.TakeResolved(); ok {
				cl.procs[req.Source].Deliver(v)
			}
		}
	}

	// 3. CPU phase.
	for _, cl := range m.clusters {
		for _, p := range cl.procs {
			p.CPUPhase()
		}
	}

	// 4. Request lines: local slots per cluster, then the adapters'
	// global slots.
	for _, cl := range m.clusters {
		for i, c := range cl.caches {
			if c.NeedsPriority() {
				cl.local.PrioritySlot(i)
				continue
			}
			if _, want := c.WantsBus(); want {
				cl.local.RequestSlot(i)
				cl.slotted[i] = true
			} else if cl.slotted[i] {
				cl.local.CancelSlot(i)
				cl.slotted[i] = false
			}
		}
		for i, c := range cl.caches {
			if v, ok := c.TakeResolved(); ok {
				cl.procs[i].Deliver(v)
			}
		}
		if cl.adapter.wantsGlobal() {
			m.global.RequestSlot(cl.id)
		}
	}
	return m.err
}

// Run executes until done or maxCycles elapse.
func (m *Machine) Run(maxCycles uint64) (uint64, error) {
	start := m.cycle
	for m.cycle-start < maxCycles && !m.Done() {
		if err := m.Step(); err != nil {
			return m.cycle - start, err
		}
	}
	return m.cycle - start, m.err
}

// Metrics summarizes the two-level traffic.
type Metrics struct {
	Cycles      uint64
	Global      bus.Stats
	Locals      []bus.Stats
	TotalRefs   uint64
	ClusterHits uint64 // local misses served by the cluster cache
}

// Metrics returns the counters.
func (m *Machine) Metrics() Metrics {
	mt := Metrics{Cycles: m.cycle, Global: m.global.Stats()}
	for _, cl := range m.clusters {
		mt.Locals = append(mt.Locals, cl.local.Stats())
		mt.ClusterHits += cl.adapter.hits
		for _, p := range cl.procs {
			mt.TotalRefs += p.Stats().Retired
		}
	}
	return mt
}

// LocalTransactions sums transactions over all local buses.
func (mt Metrics) LocalTransactions() uint64 {
	var t uint64
	for _, l := range mt.Locals {
		t += l.Transactions()
	}
	return t
}

// FilterRatio is the fraction of local bus transactions that the cluster
// caches kept off the global bus.
func (mt Metrics) FilterRatio() float64 {
	local := mt.LocalTransactions()
	if local == 0 {
		return 0
	}
	return 1 - float64(mt.Global.Transactions())/float64(local)
}
