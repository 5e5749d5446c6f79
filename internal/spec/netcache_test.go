package spec

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// starSpec is an n-node star scenario.
func starSpec(n int) *Spec {
	return &Spec{Topology: Topology{Kind: "star", Nodes: n}, Worm: Worm{Kind: "random", Beta: 0.5}}
}

// TestSweepCacheWarmReuse pins the NetBuilds semantics the daemon
// relies on: NetBuilds counts builds *this sweep performed*, so a
// sweep over a cold cache builds once, and re-running the same spec
// over the now-warm shared cache builds zero times — while producing
// byte-identical results.
func TestSweepCacheWarmReuse(t *testing.T) {
	cache := NewNetCache(8)

	cold, coldStats, err := Sweep(context.Background(), sweepSpec(t), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.NetBuilds != 1 {
		t.Fatalf("cold sweep NetBuilds = %d, want 1", coldStats.NetBuilds)
	}

	warm, warmStats, err := Sweep(context.Background(), sweepSpec(t), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.NetBuilds != 0 {
		t.Fatalf("warm sweep NetBuilds = %d, want 0 (net served from the shared cache)", warmStats.NetBuilds)
	}
	if cs := cache.Stats(); cs.Builds != 1 || cs.Hits < 3 || cs.Size != 1 {
		t.Fatalf("cache stats = %+v, want 1 build, >= 3 hits, size 1", cs)
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i].Result.Infected, warm[i].Result.Infected) {
			t.Fatalf("point %s: warm-cache series diverged from cold build", cold[i].Name)
		}
	}
}

// TestNetCacheLRUEviction: a capped cache drops the least-recently-used
// net and rebuilds it on the next request — bounded memory at daemon
// lifetime, correctness unchanged.
func TestNetCacheLRUEviction(t *testing.T) {
	cache := NewNetCache(1)
	build := func(nodes int) func() (*Net, error) {
		return starSpec(nodes).BuildNet
	}

	if _, built, err := cache.Get("a", build(10)); err != nil || !built {
		t.Fatalf("first Get(a): built=%v err=%v, want fresh build", built, err)
	}
	if _, built, err := cache.Get("b", build(20)); err != nil || !built {
		t.Fatalf("first Get(b): built=%v err=%v, want fresh build", built, err)
	}
	// cap 1: inserting b evicted a.
	if s := cache.Stats(); s.Size != 1 || s.Evictions != 1 {
		t.Fatalf("stats after eviction = %+v, want size 1, 1 eviction", s)
	}
	if _, built, err := cache.Get("b", build(20)); err != nil || built {
		t.Fatalf("Get(b) again: built=%v err=%v, want cache hit", built, err)
	}
	if _, built, err := cache.Get("a", build(10)); err != nil || !built {
		t.Fatalf("Get(a) after eviction: built=%v err=%v, want rebuild", built, err)
	}
	if s := cache.Stats(); s.Builds != 3 || s.Hits != 1 || s.Evictions != 2 {
		t.Fatalf("final stats = %+v, want 3 builds, 1 hit, 2 evictions", s)
	}
}

// TestNetCacheConcurrentSingleBuild: concurrent misses on one key run
// the builder exactly once; every caller shares the result.
func TestNetCacheConcurrentSingleBuild(t *testing.T) {
	cache := NewNetCache(4)
	var builds atomic.Int32
	build := func() (*Net, error) {
		builds.Add(1)
		return starSpec(50).BuildNet()
	}

	const callers = 8
	nets := make([]*Net, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net, _, err := cache.Get("star", build)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			nets[i] = net
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if nets[i] != nets[0] {
			t.Fatalf("caller %d got a different *Net than caller 0", i)
		}
	}
}

// TestNetCacheBuildErrorNotCached: a failed build reaches every waiter
// but leaves no entry behind, so the next Get retries.
func TestNetCacheBuildErrorNotCached(t *testing.T) {
	cache := NewNetCache(4)
	boom := errors.New("boom")
	calls := 0
	_, built, err := cache.Get("k", func() (*Net, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) || built {
		t.Fatalf("failed build: built=%v err=%v, want boom and built=false", built, err)
	}
	if s := cache.Stats(); s.Size != 0 || s.Builds != 0 {
		t.Fatalf("stats after failed build = %+v, want empty cache", s)
	}
	_, built, err = cache.Get("k", func() (*Net, error) { calls++; return starSpec(10).BuildNet() })
	if err != nil || !built {
		t.Fatalf("retry after failed build: built=%v err=%v, want fresh build", built, err)
	}
	if calls != 2 {
		t.Fatalf("builder calls = %d, want 2 (error not cached)", calls)
	}
}

// TestNetCacheKeyIsNetKey: routing state depends on the topology
// alone, so a point's cache key is its scenario's NetKey. A sweep
// written when routing had two modes, gridding the now-ignored
// run.structural_threshold, builds one Net for all its points.
func TestNetCacheKeyIsNetKey(t *testing.T) {
	s, err := Parse([]byte(`
format: wormsim-scenario
version: 1
topology:
  kind: star
  nodes: 10
worm:
  kind: random
  beta: 0.5
ticks: 5
grid:
  - path: run.structural_threshold
    values: [0, -1]
`))
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := Sweep(context.Background(), s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || stats.NetBuilds != 1 {
		t.Fatalf("stats = %+v, want 2 points sharing 1 net build", stats)
	}
	for i, r := range results {
		pt, _, err := s.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		key, err := pt.NetKey()
		if err != nil {
			t.Fatal(err)
		}
		if key != "star/n=10" {
			t.Fatalf("point %s: key = %q, want %q", r.Name, key, "star/n=10")
		}
	}
}
