package worm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testEnv() *Env {
	// 12 nodes; nodes 0-3 subnet 0, 4-7 subnet 1, 8-11 subnet 2.
	subnet := make([]int32, 12)
	for i := range subnet {
		subnet[i] = int32(i / 4)
	}
	return &Env{N: 12, Subnet: subnet}
}

func TestRandomPickerUniform(t *testing.T) {
	env := testEnv()
	p := NewRandomFactory()(env, 3)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, env.N)
	const trials = 12000
	for i := 0; i < trials; i++ {
		tgt := p.Pick(rng, 3)
		if tgt < 0 || tgt >= env.N {
			t.Fatalf("target %d out of range", tgt)
		}
		counts[tgt]++
	}
	for node, c := range counts {
		frac := float64(c) / trials
		if frac < 0.05 || frac > 0.12 { // expected 1/12 ≈ 0.083
			t.Errorf("node %d hit fraction %v, want ~0.083", node, frac)
		}
	}
}

func TestRandomFactoryShares(t *testing.T) {
	env := testEnv()
	f := NewRandomFactory()
	a := f(env, 0)
	b := f(env, 5)
	if a != b {
		t.Error("random pickers for the same env should be shared")
	}
}

func TestRandomPickerEmptyEnv(t *testing.T) {
	p := NewRandomFactory()(&Env{}, 0)
	if got := p.Pick(rand.New(rand.NewSource(1)), 0); got != -1 {
		t.Errorf("empty env pick = %d, want -1", got)
	}
}

func TestLocalPreferentialBias(t *testing.T) {
	env := testEnv()
	f, err := NewLocalPreferentialFactory(0.8)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	p := f(env, 1) // subnet 0
	rng := rand.New(rand.NewSource(2))
	local := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		tgt := p.Pick(rng, 1)
		if tgt < 0 || tgt >= env.N {
			t.Fatalf("target %d out of range", tgt)
		}
		if env.Subnet[tgt] == 0 {
			local++
		}
	}
	// Expected local fraction: 0.8 + 0.2*(4/12) ≈ 0.867.
	frac := float64(local) / trials
	if frac < 0.82 || frac > 0.91 {
		t.Errorf("local fraction = %v, want ~0.87", frac)
	}
}

func TestLocalPreferentialFactoryValidation(t *testing.T) {
	if _, err := NewLocalPreferentialFactory(-0.1); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := NewLocalPreferentialFactory(1.1); err == nil {
		t.Error("p>1 should fail")
	}
}

func TestLocalPreferentialRouterFallsBack(t *testing.T) {
	// A node with subnet -1 (router) must fall back to random.
	env := testEnv()
	env.Subnet[0] = -1
	f, err := NewLocalPreferentialFactory(1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := f(env, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tgt := p.Pick(rng, 0)
		if tgt < 0 || tgt >= env.N {
			t.Fatalf("router pick %d out of range", tgt)
		}
	}
}

func TestSequentialPicker(t *testing.T) {
	env := testEnv()
	p := NewSequentialFactory()(env, 10)
	rng := rand.New(rand.NewSource(4))
	want := []int{11, 0, 1, 2, 3}
	for i, w := range want {
		if got := p.Pick(rng, 10); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
	empty := NewSequentialFactory()(&Env{}, 0)
	if got := empty.Pick(rng, 0); got != -1 {
		t.Errorf("empty env sequential = %d, want -1", got)
	}
}

func TestSequentialPerHostState(t *testing.T) {
	env := testEnv()
	f := NewSequentialFactory()
	a := f(env, 0)
	b := f(env, 0)
	rng := rand.New(rand.NewSource(5))
	if a.Pick(rng, 0) != 1 || b.Pick(rng, 0) != 1 {
		t.Error("independent cursors should both start after self")
	}
}

// Property: every picker's targets stay in range for arbitrary seeds.
func TestPickersInRangeProperty(t *testing.T) {
	env := testEnv()
	lpf, err := NewLocalPreferentialFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	factories := []Factory{NewRandomFactory(), lpf, NewSequentialFactory()}
	f := func(seed int64, selfRaw uint8) bool {
		self := int(selfRaw) % env.N
		rng := rand.New(rand.NewSource(seed))
		for _, fac := range factories {
			p := fac(env, self)
			for i := 0; i < 50; i++ {
				tgt := p.Pick(rng, self)
				if tgt < 0 || tgt >= env.N {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProtoString(t *testing.T) {
	tests := []struct {
		p    Proto
		want string
	}{
		{ProtoTCP, "tcp"}, {ProtoUDP, "udp"}, {ProtoICMP, "icmp"}, {Proto(0), "proto?"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}
