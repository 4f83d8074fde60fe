package o2

import (
	"math"
	"testing"
	"testing/quick"
)

// kvTestSpec is the Tiny8-scale store the tests measure: 16 shards of
// 8 KB under a 64 K-entry key space.
func kvTestSpec() KVSpec {
	return KVSpec{Shards: 16, SlotsPerShard: 128, SlotBytes: 64, Keys: 1 << 16}
}

// kvScanHeavySkewed is the scenario's headline cell: 40% full-shard
// scans, Zipf-0.99 key popularity, oversubscribed closed-loop clients.
func kvScanHeavySkewed() KVLoad {
	return KVLoad{
		Clients:      16,
		OpsPerClient: 600,
		Mix:          KVMix{Gets: 0.59, Scans: 0.40, Puts: 0.01},
		Skew:         0.99,
		Seed:         42,
	}
}

func runKVPolicy(t *testing.T, p KVPolicy, spec KVSpec, load KVLoad) KVResult {
	t.Helper()
	rt, err := New(append([]Option{WithTopology(Tiny8), WithSeed(42)}, p.Options()...)...)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.NewKVService(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(load)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKVReplicationBeatsBaselineOnScanHeavySkewed asserts the scenario's
// acceptance criterion: on the scan-heavy, Zipf-skewed cell the
// CoreTime + read-only-replication policy outperforms the traditional
// thread scheduler — the paper's §6.2 argument measured on a service
// workload instead of the fatfs microbenchmark. The simulation is
// deterministic, so the margin is stable; the 10% floor just keeps the
// assertion meaningful.
func TestKVReplicationBeatsBaselineOnScanHeavySkewed(t *testing.T) {
	spec, load := kvTestSpec(), kvScanHeavySkewed()
	base := runKVPolicy(t, KVThreadScheduler, spec, load)
	repl := runKVPolicy(t, KVCoreTimeReplicated, spec, load)

	if repl.KOpsPerSec < base.KOpsPerSec*1.10 {
		t.Errorf("coretime+replication %.0f kops/s does not beat thread scheduler %.0f kops/s by 10%%",
			repl.KOpsPerSec, base.KOpsPerSec)
	}
	// The mechanism, not just the outcome: replication serves shards
	// on-chip (hit rate way up) at the price of migrations the baseline
	// never pays.
	if repl.CacheHitRate < base.CacheHitRate+0.2 {
		t.Errorf("replication hit rate %.3f not clearly above baseline %.3f", repl.CacheHitRate, base.CacheHitRate)
	}
	if base.Migrations != 0 {
		t.Errorf("thread scheduler migrated %d times; baseline must never migrate", base.Migrations)
	}
	if repl.Migrations == 0 {
		t.Error("coretime+replication recorded no migrations; the policy is not engaging")
	}
}

// TestKVCoreTimeBeatsBaselineOnScanHeavySkewed pins the plain-CoreTime
// ordering on the same cell, so the sweep's policy story (baseline <
// replication <= coretime family) stays anchored.
func TestKVCoreTimeBeatsBaselineOnScanHeavySkewed(t *testing.T) {
	spec, load := kvTestSpec(), kvScanHeavySkewed()
	base := runKVPolicy(t, KVThreadScheduler, spec, load)
	ct := runKVPolicy(t, KVCoreTime, spec, load)
	if ct.KOpsPerSec < base.KOpsPerSec*1.10 {
		t.Errorf("coretime %.0f kops/s does not beat thread scheduler %.0f kops/s by 10%%",
			ct.KOpsPerSec, base.KOpsPerSec)
	}
}

// TestKVSlotAddressingRegression is the regression test for the kvstore
// example's addressing bug: its slotAddr used (key/shards)%slots, which
// collapses every key below the shard count onto slot 0 — with
// shards >= slots an entire dense key range crowds into one slot per
// shard, so every get and put of distinct keys hammers one cache line.
// The KVService addressing must spread those same key streams.
func TestKVSlotAddressingRegression(t *testing.T) {
	spec := KVSpec{Shards: 64, SlotsPerShard: 32, SlotBytes: 64, Keys: 1 << 16} // shards >= slots
	rt := MustNew(WithTopology(Tiny8))
	svc, err := rt.NewKVService(spec)
	if err != nil {
		t.Fatal(err)
	}

	oldSlot := func(key uint64) int {
		return int(key / uint64(spec.Shards) % uint64(spec.SlotsPerShard))
	}
	oldSeen := map[int]bool{}
	newSeen := map[int]bool{}
	for key := uint64(0); key < uint64(spec.Shards); key++ { // dense keys, one per shard
		oldSeen[oldSlot(key)] = true
		newSeen[svc.SlotOf(key)] = true
	}
	if len(oldSeen) != 1 {
		t.Fatalf("premise: old formula spread %d slots, expected the slot-0 collapse", len(oldSeen))
	}
	if len(newSeen) < spec.SlotsPerShard/2 {
		t.Errorf("SlotOf spread a dense key range over only %d/%d slots", len(newSeen), spec.SlotsPerShard)
	}

	// And the addresses the machine actually touches are distinct slots,
	// not one line: distinct keys of one shard must hit multiple addresses.
	addrs := map[Addr]bool{}
	for i := 0; i < 32; i++ {
		key := uint64(i * spec.Shards) // all map to shard 0
		addrs[svc.SlotAddr(key)] = true
	}
	if len(addrs) < 8 {
		t.Errorf("32 distinct shard-0 keys mapped to %d slot addresses; expected a spread", len(addrs))
	}
}

// TestKVServiceAddressingProperties checks the service-level addressing
// contract with testing/quick: every key's slot address stays inside its
// shard's object, shards balance dense ranges within one, and the slot
// chosen for a key survives shard-count changes.
func TestKVServiceAddressingProperties(t *testing.T) {
	rt := MustNew(WithTopology(Small4))
	specA := KVSpec{Shards: 8, SlotsPerShard: 16, SlotBytes: 64, Keys: 1 << 12}
	specB := KVSpec{Shards: 24, SlotsPerShard: 16, SlotBytes: 64, Keys: 1 << 12}
	svcA, err := rt.NewKVService(specA)
	if err != nil {
		t.Fatal(err)
	}
	rtB := MustNew(WithTopology(Small4))
	svcB, err := rtB.NewKVService(specB)
	if err != nil {
		t.Fatal(err)
	}

	f := func(key uint64) bool {
		shard := svcA.ShardOf(key)
		if shard < 0 || shard >= specA.Shards {
			return false
		}
		slot := svcA.SlotOf(key)
		if slot < 0 || slot >= specA.SlotsPerShard {
			return false
		}
		obj := svcA.Shard(shard)
		addr := svcA.SlotAddr(key)
		if addr < obj.Addr(0) || addr+Addr(specA.SlotBytes) > obj.Addr(obj.Size()) {
			return false
		}
		// Same slot table size, different shard count: the slot must not
		// move.
		return svcB.SlotOf(key) == slot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestKVRunDeterminism: identical seeds give byte-identical results;
// different seeds actually vary the run.
func TestKVRunDeterminism(t *testing.T) {
	load := kvScanHeavySkewed()
	load.Clients = 8
	load.OpsPerClient = 200
	run := func(seed uint64) KVResult {
		rt := MustNew(WithTopology(Tiny8), WithSeed(seed))
		svc, err := rt.NewKVService(kvTestSpec())
		if err != nil {
			t.Fatal(err)
		}
		l := load
		l.Seed = seed
		res, err := svc.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a == c {
		t.Error("different seeds produced identical results; seed is not reaching the run")
	}
}

// TestKVSweepWorkerInvariance runs a small policy×skew grid at one and
// many workers: the SweepResults must be deeply identical, the KV
// instance of the engine's determinism guarantee.
func TestKVSweepWorkerInvariance(t *testing.T) {
	cfg := QuickKVConfig()
	cfg.Spec = KVSpec{Shards: 8, SlotsPerShard: 64, SlotBytes: 64, Keys: 1 << 12}
	cfg.Load = KVLoad{Clients: 8, OpsPerClient: 120}
	cfg.Mixes = []KVMix{DefaultKVMix()}
	cfg.Skews = []float64{0, 0.99}
	cfg.Policies = []KVPolicy{KVThreadScheduler, KVCoreTime}
	cfg.Seed = 5

	run := func(workers int) *SweepResult {
		_, sweep := KVSweep(cfg)
		res, err := sweep.WithWorkers(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, many := run(1), run(8)
	if len(one.Cells) != len(many.Cells) {
		t.Fatalf("cell count differs: %d vs %d", len(one.Cells), len(many.Cells))
	}
	for i := range one.Cells {
		a, b := one.Cells[i], many.Cells[i]
		for _, m := range []string{"kops_per_sec", "cycles_per_op", "cache_hit_rate", "migrations"} {
			if a.Stats[m] != b.Stats[m] {
				t.Errorf("cell %d %v metric %s differs across worker counts: %+v vs %+v",
					i, a.Labels, m, a.Stats[m], b.Stats[m])
			}
		}
	}
}

// TestKVCellHonorsCellScheduler: Cell.Scheduler is authoritative for
// KVCell exactly as it is for DirLookupCell — a bare cell runs under it,
// and a PolicyAxis value keeps it in sync with the policy it applies.
func TestKVCellHonorsCellScheduler(t *testing.T) {
	base := Cell{
		Machine: Tiny8,
		KV:      KVSpec{Shards: 4, SlotsPerShard: 16, SlotBytes: 64, Keys: 64},
		Load:    KVLoad{Clients: 2, OpsPerClient: 20},
	}

	bare := base
	bare.Scheduler = Baseline
	m, err := KVCell(bare)
	if err != nil {
		t.Fatal(err)
	}
	if m["migrations"] != 0 {
		t.Errorf("Scheduler=Baseline cell migrated %v times; KVCell is ignoring Cell.Scheduler", m["migrations"])
	}

	// A PolicyAxis value applied over a conflicting base scheduler must
	// select the policy's scheduler, not the base's.
	viaAxis := base
	viaAxis.Scheduler = Baseline
	PolicyAxis(KVCoreTime).Values[0].Apply(&viaAxis)
	if viaAxis.Scheduler != CoreTime {
		t.Fatalf("PolicyAxis left Cell.Scheduler = %v, want CoreTime", viaAxis.Scheduler)
	}
	m, err = KVCell(viaAxis)
	if err != nil {
		t.Fatal(err)
	}
	if m["migrations"] == 0 {
		t.Error("PolicyAxis(KVCoreTime) cell never migrated; the policy is not in effect")
	}
}

// TestKVSpecDefaultsAndValidation covers the spec's defaulting and
// rejection paths.
func TestKVSpecDefaultsAndValidation(t *testing.T) {
	d := KVSpec{}.WithDefaults()
	if d.Shards != 16 || d.SlotsPerShard != 128 || d.SlotBytes != 64 || d.Keys != 16*128 {
		t.Errorf("unexpected defaults: %+v", d)
	}
	rt := MustNew(WithTopology(Small4))
	if _, err := rt.NewKVService(KVSpec{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := rt.NewKVService(KVSpec{Keys: -5}); err == nil {
		t.Error("negative key count accepted")
	}
}

// TestKVLoadValidation covers the load generator's rejection paths.
func TestKVLoadValidation(t *testing.T) {
	rt := MustNew(WithTopology(Small4))
	svc, err := rt.NewKVService(KVSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: -1, Scans: 2, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("negative mix weight accepted")
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: math.NaN(), Scans: 1, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("NaN mix weight accepted; it would silently run as 100% gets")
	}
	if _, err := svc.Run(KVLoad{Mix: KVMix{Gets: math.Inf(1), Scans: 1, Puts: 0}, OpsPerClient: 1}); err == nil {
		t.Error("infinite mix weight accepted")
	}
	if _, err := svc.Run(KVLoad{Skew: -0.5, OpsPerClient: 1}); err == nil {
		t.Error("negative skew accepted")
	}
	if _, err := svc.Run(KVLoad{Clients: -2}); err == nil {
		t.Error("negative client count accepted")
	}
}

// TestKVMixLabels pins the axis labels sweep cells are addressed by.
func TestKVMixLabels(t *testing.T) {
	cases := []struct {
		mix  KVMix
		want string
	}{
		{KVMix{Gets: 0.59, Scans: 0.40, Puts: 0.01}, "g59s40p1"},
		{KVMix{Gets: 59, Scans: 40, Puts: 1}, "g59s40p1"}, // normalization
		{KVMix{Gets: 1}, "g100s0p0"},
	}
	for _, tc := range cases {
		if got := tc.mix.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.mix, got, tc.want)
		}
	}
}

// TestKVPolicyOptionsSelectSchedulers checks each policy builds a runtime
// under the scheduler it names.
func TestKVPolicyOptionsSelectSchedulers(t *testing.T) {
	want := map[KVPolicy]Scheduler{
		KVThreadScheduler:    Baseline,
		KVHashAffinity:       Affinity,
		KVCoreTime:           CoreTime,
		KVCoreTimeReplicated: CoreTime,
	}
	for p, sched := range want {
		rt, err := New(append([]Option{WithTopology(Small4)}, p.Options()...)...)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if rt.Scheduler() != sched {
			t.Errorf("%v built scheduler %v, want %v", p, rt.Scheduler(), sched)
		}
	}
}

// TestAffinitySchedulerRuns drives a tiny load under the hash-affinity
// scheduler end to end through the façade.
func TestAffinitySchedulerRuns(t *testing.T) {
	rt := MustNew(WithTopology(Tiny8), WithScheduler(Affinity), WithSeed(3))
	svc, err := rt.NewKVService(KVSpec{Shards: 8, SlotsPerShard: 32, SlotBytes: 64, Keys: 256})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(KVLoad{Clients: 8, OpsPerClient: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "hash-affinity" {
		t.Errorf("scheduler name %q", res.Scheduler)
	}
	if res.Ops != 800 || res.KOpsPerSec <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if res.Migrations == 0 {
		t.Error("hash affinity never migrated; annotator not engaged")
	}
}
