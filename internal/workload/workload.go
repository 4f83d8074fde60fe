// Package workload builds and drives the paper's evaluation workloads.
//
// The central one is the directory-lookup workload of Figures 1/3: each
// thread repeatedly picks a random directory and resolves a random file
// name in it by linear scan. Directories are the objects, lookups the
// operations. Popularity is either uniform (Fig. 4a) or oscillating
// between the full directory set and a sixteenth of it (Fig. 4b).
package workload

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fatfs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DirSpec sizes the directory tree.
type DirSpec struct {
	// Dirs is the number of directories; EntriesPerDir the file entries
	// in each (the paper uses 1,000 entries of 32 bytes).
	Dirs          int
	EntriesPerDir int
}

// TotalBytes returns the directory data footprint, the x-axis of Fig. 4.
func (d DirSpec) TotalBytes() int { return d.Dirs * d.EntriesPerDir * fatfs.DirEntrySize }

// VolumeBytes returns the FAT volume size that holds the tree: directory
// data plus FAT/root metadata plus slack.
func (d DirSpec) VolumeBytes() int { return d.TotalBytes()*2 + (8 << 20) }

// ImageBytes returns the machine memory image size the environment needs:
// the volume plus room for locks and thread contexts.
func (d DirSpec) ImageBytes() int { return d.VolumeBytes() + (4 << 20) }

// DirHandle bundles everything the drivers need per directory.
type DirHandle struct {
	Dir   fatfs.Dir
	Obj   *mem.Object
	Lock  *exec.SpinLock
	Names []string
}

// Env is a built benchmark environment: machine, substrate, file system,
// and the directory tree.
type Env struct {
	Eng  *sim.Engine
	Mach *machine.Machine
	Sys  *exec.System
	FS   *fatfs.FS
	Dirs []*DirHandle
	Spec DirSpec
}

// BuildEnvOn builds the directory-tree environment on sys: a FAT volume
// formatted inside the machine's memory image, spec.Dirs directories of
// spec.EntriesPerDir files each, a per-directory spin lock (the paper
// added per-directory spin locks to EFSL), and one registered memory
// object per directory. The image must have room for the volume (see
// DirSpec.ImageBytes).
func BuildEnvOn(sys *exec.System, spec DirSpec) (*Env, error) {
	if spec.Dirs <= 0 || spec.EntriesPerDir <= 0 {
		return nil, fmt.Errorf("workload: need positive dirs and entries, got %+v", spec)
	}
	eng, m := sys.Engine(), sys.Machine()

	fcfg := fatfs.Config{TotalBytes: spec.VolumeBytes(), SectorsPerCluster: 8, RootEntries: rootEntriesFor(spec.Dirs)}
	fs, err := fatfs.Format(m.Image(), fcfg)
	if err != nil {
		return nil, err
	}

	env := &Env{Eng: eng, Mach: m, Sys: sys, FS: fs, Spec: spec}
	null := fatfs.NullAccess{}
	for i := 0; i < spec.Dirs; i++ {
		dirName := fmt.Sprintf("DIR%05d", i)
		d, err := fs.Mkdir(null, fs.Root(), dirName, spec.EntriesPerDir)
		if err != nil {
			return nil, fmt.Errorf("workload: mkdir %s: %w", dirName, err)
		}
		names := make([]string, spec.EntriesPerDir)
		for j := range names {
			names[j] = fileName(j)
		}
		if err := fs.Populate(d, spec.EntriesPerDir, func(j int) string { return names[j] }); err != nil {
			return nil, fmt.Errorf("workload: populate %s: %w", dirName, err)
		}
		span, err := fs.Extent(d)
		if err != nil {
			return nil, err
		}
		obj, err := registerSpan(m.Image(), dirName, span)
		if err != nil {
			return nil, err
		}
		env.Dirs = append(env.Dirs, &DirHandle{
			Dir:   d,
			Obj:   obj,
			Lock:  sys.NewSpinLock(dirName),
			Names: names,
		})
	}
	return env, nil
}

// fileName formats the benchmark file name "F%07d" without fmt's
// reflection machinery: environments are rebuilt per sweep cell, so the
// name table is built thousands of times per sweep. Indices too wide for
// seven digits fall back to fmt so they fail EncodeName's 8.3 check
// loudly instead of silently colliding.
func fileName(j int) string {
	if j > 9_999_999 {
		return fmt.Sprintf("F%07d", j)
	}
	var buf [8]byte
	buf[0] = 'F'
	n := j
	for i := 7; i >= 1; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[:])
}

// rootEntriesFor sizes the root directory to hold n subdirectories,
// rounded up to whole sectors.
func rootEntriesFor(n int) int {
	entries := n + 16
	perSector := fatfs.SectorSize / fatfs.DirEntrySize
	if r := entries % perSector; r != 0 {
		entries += perSector - r
	}
	return entries
}

// registerSpan registers an existing span as a named object. The image's
// object registry normally allocates; here the bytes already exist inside
// the FAT volume, so we register the span directly.
func registerSpan(img *mem.Image, name string, span mem.Span) (*mem.Object, error) {
	return img.RegisterObject(name, span)
}

// Popularity selects which directories a lookup may target.
type Popularity int

const (
	// Uniform picks uniformly over all directories (Fig. 4a).
	Uniform Popularity = iota
	// Oscillating alternates between the full set and a sixteenth of it
	// every OscillatePeriod (Fig. 4b: "the number of directories
	// accessed oscillates from the value represented on the x-axis to a
	// sixteenth of that value").
	Oscillating
	// Hotspot sends HotFraction of lookups to the first HotDirs
	// directories and the rest uniformly over the remainder; used by the
	// cache-replacement ablation (§6.2, working sets larger than on-chip
	// memory).
	Hotspot
	// UniformThenHotspot behaves as Uniform until PhaseShiftAt, then as
	// Hotspot — an adversarial schedule for placement policies that
	// cannot revise early decisions.
	UniformThenHotspot
)

// RunParams drive one measurement.
type RunParams struct {
	Threads int
	// Warmup runs before counters reset; Measure is the measured window.
	Warmup  sim.Cycles
	Measure sim.Cycles

	Popularity      Popularity
	OscillatePeriod sim.Cycles
	// OscillateDivisor is the shrink factor of the small phase (16 in
	// the paper).
	OscillateDivisor int

	// HotDirs and HotFraction configure Hotspot popularity.
	HotDirs     int
	HotFraction float64

	// PhaseShiftAt is when UniformThenHotspot switches distribution.
	PhaseShiftAt sim.Cycles

	Seed uint64
}

// perOpCompute is the fixed per-lookup computation (random number
// generation, call overhead) in cycles.
const perOpCompute sim.Cycles = 60

// DefaultRunParams returns the parameters used by the figure harnesses.
// The warmup must cover both CoreTime's placement phase and the flushing
// of pre-placement cache copies: measurements at AMD16 scale converge by
// ~12M cycles (6 ms of simulated time).
func DefaultRunParams() RunParams {
	return RunParams{
		Threads:          16,
		Warmup:           12_000_000,
		Measure:          6_000_000,
		Popularity:       Uniform,
		OscillatePeriod:  2_000_000,
		OscillateDivisor: 16,
		Seed:             1,
	}
}

// WithDefaults returns p with unset fields replaced by their
// DefaultRunParams values. A fully zero RunParams becomes exactly
// DefaultRunParams(); a partially filled one keeps what the caller set and
// fills the rest field by field, so "I only chose the thread count" does
// not silently run a zero-length measurement. Warmup is left untouched —
// zero warmup is a legitimate configuration (Fig. 2 measures the warmup
// phase itself) — and a zero Seed is resolved later against the engine's
// base seed (see RunDirLookup). Experiment.Run and the sweep engine share
// this one code path, so the same cell measured either way gets identical
// parameters.
func (p RunParams) WithDefaults() RunParams {
	if p == (RunParams{}) {
		return DefaultRunParams()
	}
	d := DefaultRunParams()
	if p.Threads == 0 {
		p.Threads = d.Threads
	}
	if p.Measure == 0 {
		p.Measure = d.Measure
	}
	if p.OscillatePeriod == 0 {
		p.OscillatePeriod = d.OscillatePeriod
	}
	if p.OscillateDivisor == 0 {
		p.OscillateDivisor = d.OscillateDivisor
	}
	return p
}

// masterRNG returns the generator a run's per-thread RNGs split from: the
// explicit RunParams.Seed when set, otherwise a stream derived from the
// engine's base seed (Engine.RNG), so runs seeded through the runtime
// (o2.WithSeed) stay deterministic without every caller threading a seed
// by hand.
func masterRNG(eng *sim.Engine, p RunParams) *stats.RNG {
	if p.Seed != 0 {
		return stats.NewRNG(p.Seed)
	}
	return eng.RNG(uint64(p.Popularity) + 1)
}

// Result is one measured point.
type Result struct {
	Resolutions uint64   // lookups completed inside the measured window
	PerThread   []uint64 // per-thread resolution counts
	Elapsed     sim.Cycles
	Scheduler   string

	// KResPerSec is the paper's y-axis: thousands of resolutions per
	// second of simulated time.
	KResPerSec float64

	// Migrations counts thread migrations during the measured window
	// (CoreTime only; 0 for the baseline).
	Migrations uint64
}

// RunDirLookup measures the directory-lookup workload under the given
// annotator (sched.ThreadScheduler for the baseline, *core.Runtime for
// CoreTime). The environment's caches and counters are flushed first, so
// an Env can be reused across runs.
func RunDirLookup(env *Env, ann sched.Annotator, p RunParams) Result {
	if p.Threads <= 0 {
		panic("workload: RunDirLookup needs at least one thread")
	}
	env.Mach.FlushAll()
	env.Mach.Counters().Reset()

	ncores := env.Mach.Config().NumCores()
	homes := sched.RoundRobin(p.Threads, ncores)
	measureStart := env.Eng.Now() + p.Warmup
	deadline := measureStart + p.Measure

	counts := make([]uint64, p.Threads)
	var migBase uint64
	rngs := make([]*stats.RNG, p.Threads)
	master := masterRNG(env.Eng, p)
	for i := range rngs {
		rngs[i] = master.Split()
	}

	divisor := p.OscillateDivisor
	if divisor <= 0 {
		divisor = 16
	}

	for i := 0; i < p.Threads; i++ {
		i := i
		env.Sys.Go(fmt.Sprintf("thread %d", i), homes[i], func(t *exec.Thread) {
			rng := rngs[i]
			b := t.Batch() // reused across lookups: empty between Commits
			for t.Now() < deadline {
				d := env.Dirs[pickDir(rng, env, p, divisor, t.Now())]
				name := d.Names[rng.Intn(len(d.Names))]

				t.Compute(perOpCompute)
				ann.OpStart(t, d.Obj.Base)
				t.Lock(d.Lock)
				if _, err := env.FS.Lookup(b, d.Dir, name); err != nil {
					panic(fmt.Sprintf("workload: lookup %s: %v", name, err))
				}
				b.Commit()
				t.Unlock(d.Lock)
				ann.OpEnd(t)

				if t.Now() >= measureStart && t.Now() <= deadline {
					counts[i]++
				}
				t.Yield()
			}
		})
	}

	// Reset machine counters at the start of the measured window so the
	// monitor and reports see steady-state numbers.
	env.Eng.At(measureStart, func() {
		env.Sys.FlushIdleAccounting()
		var migs uint64
		for c := 0; c < ncores; c++ {
			migs += env.Mach.Counters().Snapshot(c).MigrationsIn
		}
		migBase = migs
	})

	env.Eng.Run(0)

	var total uint64
	for _, c := range counts {
		total += c
	}
	var migs uint64
	for c := 0; c < ncores; c++ {
		migs += env.Mach.Counters().Snapshot(c).MigrationsIn
	}
	clock := env.Mach.Config().ClockHz
	seconds := float64(p.Measure) / clock
	return Result{
		Resolutions: total,
		PerThread:   counts,
		Elapsed:     p.Measure,
		Scheduler:   ann.Name(),
		KResPerSec:  float64(total) / seconds / 1000,
		Migrations:  migs - migBase,
	}
}

// pickDir implements the popularity distributions.
func pickDir(rng *stats.RNG, env *Env, p RunParams, divisor int, now sim.Time) int {
	n := len(env.Dirs)
	switch p.Popularity {
	case Oscillating:
		if p.OscillatePeriod > 0 {
			phase := (uint64(now) / uint64(p.OscillatePeriod)) % 2
			if phase == 1 {
				small := n / divisor
				if small < 1 {
					small = 1
				}
				return rng.Intn(small)
			}
		}
	case Hotspot:
		return pickHot(rng, n, p)
	case UniformThenHotspot:
		if now >= p.PhaseShiftAt {
			return pickHot(rng, n, p)
		}
	}
	return rng.Intn(n)
}

func pickHot(rng *stats.RNG, n int, p RunParams) int {
	hot := p.HotDirs
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	if rng.Float64() < p.HotFraction {
		return rng.Intn(hot)
	}
	if n > hot {
		return hot + rng.Intn(n-hot)
	}
	return rng.Intn(n)
}
