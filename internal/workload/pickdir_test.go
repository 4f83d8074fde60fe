package workload

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

func pickEnv(t *testing.T, dirs int) *Env {
	t.Helper()
	spec := DirSpec{Dirs: dirs, EntriesPerDir: 16}
	env, err := BuildEnvOn(newSystem(t, topology.Small(), spec), spec)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestPickDirUniformCoversAll(t *testing.T) {
	env := pickEnv(t, 10)
	p := RunParams{Popularity: Uniform}
	rng := stats.NewRNG(1)
	seen := map[int]int{}
	for i := 0; i < 10_000; i++ {
		d := pickDir(rng, env, p, 16, 0)
		if d < 0 || d >= 10 {
			t.Fatalf("pick out of range: %d", d)
		}
		seen[d]++
	}
	for d := 0; d < 10; d++ {
		if seen[d] < 500 {
			t.Fatalf("dir %d picked only %d/10000 times under uniform", d, seen[d])
		}
	}
}

func TestPickDirOscillatingPhases(t *testing.T) {
	env := pickEnv(t, 32)
	p := RunParams{Popularity: Oscillating, OscillatePeriod: 1000}
	rng := stats.NewRNG(2)

	// Phase 0 (t in [0,1000)): full set.
	full := map[int]bool{}
	for i := 0; i < 5000; i++ {
		full[pickDir(rng, env, p, 16, 500)] = true
	}
	if len(full) < 30 {
		t.Fatalf("full phase touched only %d/32 dirs", len(full))
	}

	// Phase 1 (t in [1000,2000)): 32/16 = 2 dirs.
	small := map[int]bool{}
	for i := 0; i < 5000; i++ {
		small[pickDir(rng, env, p, 16, 1500)] = true
	}
	if len(small) != 2 {
		t.Fatalf("small phase touched %d dirs, want 2", len(small))
	}
	for d := range small {
		if d >= 2 {
			t.Fatalf("small phase picked dir %d outside the prefix", d)
		}
	}
}

func TestPickDirOscillatingSmallSetFloor(t *testing.T) {
	env := pickEnv(t, 8)
	p := RunParams{Popularity: Oscillating, OscillatePeriod: 1000}
	rng := stats.NewRNG(3)
	// divisor 16 on 8 dirs: small phase must floor at one directory,
	// not zero.
	for i := 0; i < 100; i++ {
		if d := pickDir(rng, env, p, 16, 1500); d != 0 {
			t.Fatalf("small phase picked %d, want 0", d)
		}
	}
}

func TestPickDirHotspotSkew(t *testing.T) {
	env := pickEnv(t, 20)
	p := RunParams{Popularity: Hotspot, HotDirs: 4, HotFraction: 0.8}
	rng := stats.NewRNG(4)
	hot := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if pickDir(rng, env, p, 16, 0) < 4 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.78 || frac > 0.86 {
		t.Fatalf("hot fraction = %.3f, want ≈ 0.8 (+ uniform spillover)", frac)
	}
}

func TestPickDirHotspotDegenerate(t *testing.T) {
	env := pickEnv(t, 3)
	p := RunParams{Popularity: Hotspot, HotDirs: 10, HotFraction: 0.9}
	rng := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		d := pickDir(rng, env, p, 16, 0)
		if d < 0 || d >= 3 {
			t.Fatalf("hot dirs > total dirs picked %d", d)
		}
	}
}

func TestPickDirPhaseShift(t *testing.T) {
	env := pickEnv(t, 20)
	p := RunParams{
		Popularity:   UniformThenHotspot,
		PhaseShiftAt: 10_000,
		HotDirs:      2,
		HotFraction:  1.0,
	}
	rng := stats.NewRNG(6)
	// Before the shift: uniform.
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[pickDir(rng, env, p, 16, 500)] = true
	}
	if len(seen) < 18 {
		t.Fatalf("pre-shift phase touched only %d/20 dirs", len(seen))
	}
	// After: all traffic on the hot prefix.
	for i := 0; i < 1000; i++ {
		if d := pickDir(rng, env, p, 16, 20_000); d >= 2 {
			t.Fatalf("post-shift picked cold dir %d", d)
		}
	}
}
