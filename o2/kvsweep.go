package o2

// Sweep integration for the KVService scenario: shard-placement policies
// as option bundles, the Mix/Skew/Shard/Policy axes, the KVCell runner,
// and the configured sweep behind `o2bench kv`.

import (
	"fmt"
	"io"
	"strconv"
)

// kvMissThreshold lowers CoreTime's expensive-to-fetch bar for the KV
// scenario: point operations touch a handful of lines, far fewer than a
// directory scan, so the default threshold would never see a shard as
// placement-worthy.
const kvMissThreshold = 3

// Replication qualification under the KV scenario: a shard becomes
// replica-eligible after this many read-only operations at this read
// ratio (§6.2).
const (
	kvReplicateMinOps    = 24
	kvReplicateReadRatio = 0.90
)

// KVPolicy is a shard-placement policy of the KVService scenario: a named
// bundle of runtime options selecting the scheduler (the sched.Annotator
// underneath) and its tuning. The four policies span the design space the
// paper argues over:
//
//   - KVThreadScheduler: the traditional baseline. Clients stay on their
//     static round-robin home cores; shards live wherever the hardware
//     caches happen to pull them.
//   - KVHashAffinity: consistent-hashing placement. Each shard is pinned
//     to a fixed core by hashing its address and operations migrate
//     there — what a conventional sharded service deploys, with no
//     monitoring or rebalancing.
//   - KVCoreTime: the paper's object scheduler places hot shards into
//     caches and migrates threads to them.
//   - KVCoreTimeReplicated: CoreTime plus the §6.2 read-only replication
//     extension, giving each chip its own copy of hot read-mostly shards
//     instead of funneling every read through one core.
//   - CoreTimeBW: CoreTime reading the bandwidth-stall counters — the
//     monitor spreads placed objects off sockets whose memory controller
//     or interconnect port is saturated and refuses new placements onto
//     them. (No KV prefix: the bundle is not KV-specific; it rides any
//     Policy axis, notably the scale sweep.)
type KVPolicy int

const (
	KVThreadScheduler KVPolicy = iota
	KVHashAffinity
	KVCoreTime
	KVCoreTimeReplicated
	CoreTimeBW
)

// KVPolicies returns all placement policies in comparison order.
func KVPolicies() []KVPolicy {
	return []KVPolicy{KVThreadScheduler, KVHashAffinity, KVCoreTime, KVCoreTimeReplicated, CoreTimeBW}
}

// String returns the policy's report name, used as its axis label.
func (p KVPolicy) String() string {
	switch p {
	case KVThreadScheduler:
		return "thread-scheduler"
	case KVHashAffinity:
		return "hash-affinity"
	case KVCoreTime:
		return "coretime"
	case KVCoreTimeReplicated:
		return "coretime+repl"
	case CoreTimeBW:
		return "coretime-bw"
	default:
		return fmt.Sprintf("kvpolicy(%d)", int(p))
	}
}

// Scheduler returns the Scheduler value the policy runs under.
func (p KVPolicy) Scheduler() Scheduler {
	switch p {
	case KVHashAffinity:
		return Affinity
	case KVCoreTime, KVCoreTimeReplicated, CoreTimeBW:
		return CoreTime
	default:
		return Baseline
	}
}

// Options returns the runtime options implementing the policy.
func (p KVPolicy) Options() []Option {
	opts := []Option{WithScheduler(p.Scheduler())}
	switch p {
	case KVCoreTime:
		opts = append(opts, WithMissThreshold(kvMissThreshold))
	case KVCoreTimeReplicated:
		opts = append(opts,
			WithMissThreshold(kvMissThreshold),
			WithReplication(true),
			WithReplicationThreshold(kvReplicateMinOps, kvReplicateReadRatio),
		)
	case CoreTimeBW:
		opts = append(opts,
			WithMissThreshold(kvMissThreshold),
			WithBandwidthAware(true),
		)
	}
	return opts
}

// PolicyAxis sweeps over shard-placement policies. Each value installs
// the policy's options and sets Cell.Scheduler, so the one precedence
// rule every standard runner shares — Cell.Scheduler is authoritative,
// applied after Options — holds for policy sweeps too.
func PolicyAxis(policies ...KVPolicy) Axis {
	vals := make([]AxisValue, len(policies))
	for i, p := range policies {
		p := p
		vals[i] = AxisValue{
			Label: p.String(),
			Apply: func(c *Cell) {
				c.Scheduler = p.Scheduler()
				c.Options = append(c.Options, p.Options()...)
			},
		}
	}
	return Axis{Name: "policy", Values: vals}
}

// MixAxis sweeps over operation mixes.
func MixAxis(mixes ...KVMix) Axis {
	vals := make([]AxisValue, len(mixes))
	for i, m := range mixes {
		m := m
		vals[i] = AxisValue{Label: m.Label(), Apply: func(c *Cell) { c.Load.Mix = m }}
	}
	return Axis{Name: "mix", Values: vals}
}

// SkewAxis sweeps the Zipf popularity skew of the key stream.
func SkewAxis(skews ...float64) Axis {
	vals := make([]AxisValue, len(skews))
	for i, s := range skews {
		s := s
		vals[i] = AxisValue{
			Label: strconv.FormatFloat(s, 'g', -1, 64),
			Apply: func(c *Cell) { c.Load.Skew = s },
		}
	}
	return Axis{Name: "skew", Values: vals}
}

// ShardAxis sweeps the store's shard count.
func ShardAxis(counts ...int) Axis {
	vals := make([]AxisValue, len(counts))
	for i, n := range counts {
		n := n
		vals[i] = AxisValue{
			Label: strconv.Itoa(n),
			Apply: func(c *Cell) { c.KV.Shards = n },
		}
	}
	return Axis{Name: "shards", Values: vals}
}

// KVCell is the KV scenario's sweep runner: build the store on a runtime
// from the cell's options (reusing the cell's arena across repeats),
// drive the cell's load once. The engine's derived cell seed reaches both
// the runtime (every internal stream) and the load generator, so results
// are a pure function of the grid position — the worker-count invariance
// the o2bench kv golden test pins.
func KVCell(c Cell) (Metrics, error) {
	svc, err := scenarioForCell(&c, func(rt *Runtime) (*KVService, error) {
		return rt.NewKVService(c.KV)
	})
	if err != nil {
		return nil, err
	}
	load := c.Load
	load.Seed = c.Seed
	res, err := svc.Run(load)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"kops_per_sec":   res.KOpsPerSec,
		"cycles_per_op":  res.CyclesPerOp,
		"cache_hit_rate": res.CacheHitRate,
		"migrations":     float64(res.Migrations),
	}, nil
}

// KVConfig drives the `o2bench kv` sweep: the cross product of Mixes ×
// Skews × (optionally Shards ×) Policies on one machine and store shape.
type KVConfig struct {
	Machine Topology
	// Spec shapes the store; ShardCounts (when non-empty) sweeps its
	// shard count as an extra axis.
	Spec        KVSpec
	ShardCounts []int
	// Load is the per-cell load template; Mixes and Skews sweep its mix
	// and skew.
	Load  KVLoad
	Mixes []KVMix
	Skews []float64
	// Policies are the placement policies to compare (default: all).
	Policies []KVPolicy
	// Repeats measures every cell that many times with distinct derived
	// seeds (default 1); Workers bounds the sweep's worker pool.
	Repeats int
	Workers int
	Seed    uint64
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultKVConfig returns the full-scale configuration: the AMD16 machine
// serving a million-key store under read-heavy and scan-heavy mixes at
// uniform and classic-Zipf skew, across all four placement policies.
func DefaultKVConfig() KVConfig {
	return KVConfig{
		Machine: AMD16,
		Spec:    KVSpec{Shards: 64, SlotsPerShard: 1024, SlotBytes: 64, Keys: 1 << 20},
		Load:    KVLoad{OpsPerClient: 2000},
		Mixes: []KVMix{
			{Gets: 0.95, Scans: 0.04, Puts: 0.01}, // point-read heavy
			{Gets: 0.55, Scans: 0.40, Puts: 0.05}, // scan heavy
		},
		Skews:    []float64{0, 0.99},
		Policies: KVPolicies(),
	}
}

// QuickKVConfig returns a reduced sweep for smoke tests: the Tiny8
// machine and a kilobyte-scale store, same axes.
func QuickKVConfig() KVConfig {
	cfg := DefaultKVConfig()
	cfg.Machine = Tiny8
	cfg.Spec = KVSpec{Shards: 16, SlotsPerShard: 128, SlotBytes: 64, Keys: 1 << 16}
	cfg.Load.OpsPerClient = 500
	return cfg
}

// KVSweep resolves cfg — zero Machine becomes AMD16, zero Spec fields
// take their defaults, empty axes their standard values — and returns it
// with the Sweep that measures it, so the returned cfg describes exactly
// what the cells run. KVLoad's zero fields resolve per cell against the
// machine's core count.
func KVSweep(cfg KVConfig) (KVConfig, Sweep) {
	if cfg.Machine.cfg.Chips == 0 {
		cfg.Machine = AMD16
	}
	cfg.Spec = cfg.Spec.WithDefaults()
	if len(cfg.Mixes) == 0 {
		cfg.Mixes = []KVMix{DefaultKVMix()}
	}
	if len(cfg.Skews) == 0 {
		cfg.Skews = []float64{0.99}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = KVPolicies()
	}
	axes := []Axis{MixAxis(cfg.Mixes...), SkewAxis(cfg.Skews...)}
	if len(cfg.ShardCounts) > 0 {
		axes = append(axes, ShardAxis(cfg.ShardCounts...))
	}
	axes = append(axes, PolicyAxis(cfg.Policies...))
	return cfg, Sweep{
		Name:     "kv",
		Base:     Cell{Machine: cfg.Machine, KV: cfg.Spec, Load: cfg.Load},
		Axes:     axes,
		Repeats:  cfg.Repeats,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
		Runner:   KVCell,
		Progress: cfg.Progress,
	}
}
