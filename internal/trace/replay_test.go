package trace

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

func TestWormFlow(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want bool
	}{
		{"blaster syn", Record{Proto: worm.ProtoTCP, DstPort: 135, Flags: FlagSYN}, true},
		{"port 135 established", Record{Proto: worm.ProtoTCP, DstPort: 135, Flags: FlagACK}, false},
		{"web", Record{Proto: worm.ProtoTCP, DstPort: 80, Flags: FlagSYN}, false},
		{"welchia ping", Record{Proto: worm.ProtoICMP}, true},
		{"dns", Record{Proto: worm.ProtoUDP, DstPort: 53}, false},
	}
	for _, c := range cases {
		if got := WormFlow(&c.rec); got != c.want {
			t.Errorf("%s: WormFlow = %v, want %v", c.name, got, c.want)
		}
	}
}

// testGen is a small four-class profile shared by the replay tests.
func testGen(duration int64) GenConfig {
	return GenConfig{
		Duration:        duration,
		Seed:            42,
		NormalClients:   8,
		Servers:         2,
		P2PClients:      2,
		Infected:        2,
		BlasterFraction: 0.5,
	}
}

// drain consumes every tick of a replayer, returning a deep copy of
// each tick's batch.
func drain(t *testing.T, r *Replayer, ticks int) [][]Contact {
	t.Helper()
	out := make([][]Contact, ticks)
	for tick := 0; tick < ticks; tick++ {
		batch, err := r.Contacts(tick)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		out[tick] = append([]Contact(nil), batch...)
	}
	return out
}

// TestRecordReplayerRoundTrip: streaming a serialized trace through
// NewRecordReplayer must reproduce, tick by tick, exactly the contacts
// a whole-trace pass over the records computes.
func TestRecordReplayerRoundTrip(t *testing.T) {
	cfg := testGen(2 * Minute)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	const msPerTick = int64(1000)
	ticks := int(cfg.Duration / msPerTick)
	want := make([][]Contact, ticks)
	for i := range tr.Records {
		rec := &tr.Records[i]
		h := HostIndex(rec.Src)
		if h < 0 {
			continue
		}
		tick := int(rec.Time / msPerTick)
		if tick >= ticks {
			continue
		}
		want[tick] = append(want[tick], Contact{Host: int32(h), Dst: rec.Dst, Worm: WormFlow(rec)})
	}

	rp, err := NewRecordReplayer(&buf, msPerTick)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rp, ticks)
	for tick := range want {
		// Records arrive time-ordered; the replayer re-groups each tick
		// by host (stable), so compare against the same grouping.
		w := append([]Contact(nil), want[tick]...)
		stableByHost(w)
		g := got[tick]
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tick %d: replayed contacts diverge from the whole-trace pass\n got %v\nwant %v", tick, g, w)
		}
	}
}

// stableByHost mirrors the replayer's canonical batch order.
func stableByHost(cs []Contact) {
	// insertion sort: stable and tiny inputs only (test helper)
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j-1].Host > cs[j].Host; j-- {
			cs[j-1], cs[j] = cs[j], cs[j-1]
		}
	}
}

func TestRecordReplayerRejectsTimeDisorder(t *testing.T) {
	// Two internal-source TCP SYNs (WriteTo's numeric format) with the
	// second record 1s earlier than the first.
	trace := "5000\t167772161\t16909060\t1\t1000\t80\t1\t0\t0\n" +
		"4000\t167772161\t16909060\t1\t1001\t80\t1\t0\t0\n"
	rp, err := NewRecordReplayer(strings.NewReader(trace), 1000)
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for tick := 0; tick < 10; tick++ {
		if _, firstErr = rp.Contacts(tick); firstErr != nil {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("time-disordered trace replayed without error")
	}
}

func TestReplayerTickOrder(t *testing.T) {
	rp, err := NewSyntheticReplayer(testGen(Minute), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Contacts(1); err == nil {
		t.Error("starting at tick 1 accepted; stream begins at 0")
	}
	if _, err := rp.Contacts(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Contacts(0); err == nil {
		t.Error("repeating tick 0 accepted; batches are not replayable")
	}
	if _, err := rp.Contacts(2); err == nil {
		t.Error("skipping tick 1 accepted; ticks must be successive")
	}
}

// TestReplayerSkip: Skip(n) on a fresh stream must land exactly where
// n Contacts calls land, and report the same cumulative contact count —
// the invariant checkpoint restore relies on.
func TestReplayerSkip(t *testing.T) {
	cfg := testGen(2 * Minute)
	a, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 45
	var consumed int64
	for tick := 0; tick < cut; tick++ {
		batch, err := a.Contacts(tick)
		if err != nil {
			t.Fatal(err)
		}
		consumed += int64(len(batch))
	}
	skipped, err := b.Skip(cut)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != consumed {
		t.Fatalf("Skip(%d) skipped %d contacts; consuming tick-by-tick saw %d", cut, skipped, consumed)
	}
	ba, err := a.Contacts(cut)
	if err != nil {
		t.Fatal(err)
	}
	ga := append([]Contact(nil), ba...)
	bb, err := b.Contacts(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ga, append([]Contact(nil), bb...)) {
		t.Fatalf("tick %d after Skip diverges from tick-by-tick stream", cut)
	}
	if _, err := b.Skip(cut); err == nil {
		t.Error("skipping backwards accepted")
	}
}

// TestSyntheticReplayerDeterminism: two streams from the same config
// must be byte-identical — the property snapshot restore depends on.
func TestSyntheticReplayerDeterminism(t *testing.T) {
	cfg := testGen(90 * Second)
	a, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ticks := int(cfg.Duration / 1000)
	if !reflect.DeepEqual(drain(t, a, ticks), drain(t, b, ticks)) {
		t.Fatal("two synthetic streams from the same config diverged")
	}
}

// TestSyntheticReplayerProfile: class behaviour sanity — worm contacts
// come only from infected hosts, every class generates benign load, and
// the worm's local-preference share targets internal hosts.
func TestSyntheticReplayerProfile(t *testing.T) {
	cfg := testGen(5 * Minute)
	rp, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var benign, wormN, wormInternal int
	for _, batch := range drain(t, rp, int(cfg.Duration/1000)) {
		for _, c := range batch {
			if c.Worm {
				if cfg.HostClass(int(c.Host)) != ClassInfected {
					t.Fatalf("worm contact from host %d of class %v", c.Host, cfg.HostClass(int(c.Host)))
				}
				wormN++
				if Internal(c.Dst) {
					wormInternal++
				}
			} else {
				benign++
			}
		}
	}
	if benign == 0 || wormN == 0 {
		t.Fatalf("degenerate profile: %d benign, %d worm contacts", benign, wormN)
	}
	if wormInternal == 0 {
		t.Error("no internal worm scans; the local-preference sweep is dead")
	}
	frac := float64(wormInternal) / float64(wormN)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("internal worm share %.2f far from wormLocalPref %.2f", frac, wormLocalPref)
	}
}

// TestReplayerConstantMemory is the streaming guarantee: per-tick
// allocations must not grow with trace length. A 3-hour stream must
// cost the same per tick as a 10-minute stream — the look-ahead window
// is bounded by one generator event horizon, not by the trace.
func TestReplayerConstantMemory(t *testing.T) {
	perTick := func(duration int64) float64 {
		rp, err := NewSyntheticReplayer(testGen(duration), 1000)
		if err != nil {
			t.Fatal(err)
		}
		tick := 0
		// Warm-up lets the batch and look-ahead buffers reach steady
		// state before measuring.
		for ; tick < 60; tick++ {
			if _, err := rp.Contacts(tick); err != nil {
				t.Fatal(err)
			}
		}
		var ferr error
		avg := testing.AllocsPerRun(120, func() {
			if ferr != nil {
				return
			}
			_, ferr = rp.Contacts(tick)
			tick++
		})
		if ferr != nil {
			t.Fatal(ferr)
		}
		return avg
	}
	short := perTick(10 * Minute)
	long := perTick(3 * Hour)
	if long > 2*short+8 {
		t.Errorf("per-tick allocations scale with trace length: %.1f (3h) vs %.1f (10m)", long, short)
	}
}

// TestSyntheticReplayerStreamDigest pins the synthetic stream bit for
// bit: a SHA-256 over every tick's (Host, Dst, Worm) batch, recorded
// before the look-ahead became tick-ordered. The tick lengths cover
// each ordering path of a worm minute's scans: at 1 ms they span far
// more windows than there are scans (the stable-sort fallback), at
// 250 ms and 1 s the counting pass places them, and at one minute every
// scan falls in its event's own window. The normal-only and P2P-only
// populations are large enough that sessions and search bursts overlap:
// a later event's contacts then join held contacts in the same future
// window, and must queue behind them.
func TestSyntheticReplayerStreamDigest(t *testing.T) {
	mixed := GenConfig{
		Duration:        3 * Minute,
		Seed:            7,
		NormalClients:   24,
		Servers:         3,
		P2PClients:      4,
		Infected:        4,
		BlasterFraction: 0.5,
		WormOnset:       20 * Second,
	}
	normal := GenConfig{Duration: Hour, Seed: 11, NormalClients: 2000}
	p2p := GenConfig{Duration: 30 * Minute, Seed: 11, P2PClients: 200}
	cases := []struct {
		name      string
		cfg       GenConfig
		msPerTick int64
		contacts  int
		digest    string
	}{
		{"mixed/1ms", mixed, 1, 5253, "6ada1e1dcf7bb39cc33104e8ab91a549b894ebfd804f319d59fd17668c9fc2c5"},
		{"mixed/250ms", mixed, 250, 5253, "e3f1987d375eef88a955740a8ffe9391b286466e3ef778662d2ac44591462121"},
		{"mixed/1s", mixed, 1000, 5253, "bcd7b85ba37bb48b719959cf9fc68fbf4f1f46dfe267f61fab6fdc45e2c5b4fd"},
		{"mixed/1min", mixed, 60000, 5253, "ab4a1b0e9dbaf9f211d28748da4629ce0667cf6ce64720c60f090dbc429cd0c8"},
		{"normal/1s", normal, 1000, 6060, "9eb51e593ffc22b278606abc84560f6b74d2f420e68a03f16d4b87a8c10b6eef"},
		{"p2p/250ms", p2p, 250, 63769, "61eb7e0178904345e172a60a4edc42ec25d74df4259318f6ca7da91db57c7422"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rp, err := NewSyntheticReplayer(c.cfg, c.msPerTick)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var rec [9]byte
			n := 0
			ticks := int((c.cfg.Duration + c.msPerTick - 1) / c.msPerTick)
			for tick := 0; tick < ticks; tick++ {
				batch, err := rp.Contacts(tick)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(rec[:4], uint32(len(batch)))
				h.Write(rec[:4])
				for _, ct := range batch {
					binary.LittleEndian.PutUint32(rec[:4], uint32(ct.Host))
					binary.LittleEndian.PutUint32(rec[4:8], uint32(ct.Dst))
					rec[8] = 0
					if ct.Worm {
						rec[8] = 1
					}
					h.Write(rec[:])
				}
				n += len(batch)
			}
			if got := hex.EncodeToString(h.Sum(nil)); n != c.contacts || got != c.digest {
				t.Errorf("stream changed: %d contacts, digest %s; want %d, %s", n, got, c.contacts, c.digest)
			}
		})
	}
}

// TestSyntheticReplayerOrderByTick: both ordering paths — the counting
// pass and the stable-sort fallback — must equal a stable sort by
// window, on ordered and unordered input.
func TestSyntheticReplayerOrderByTick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sorted []synthContact
	var counts []int32
	for _, c := range []struct {
		n    int
		span int64
	}{{1, 1}, {5, 1}, {40, 3}, {40, 300}, {100, 800}, {100, 5000}, {7, 100000}} {
		for rep := 0; rep < 20; rep++ {
			fresh := make([]synthContact, c.n)
			for i := range fresh {
				fresh[i] = synthContact{tick: 1000 + rng.Int63n(c.span), dst: ratelimit.IP(i)}
			}
			if rep == 0 {
				slices.SortStableFunc(fresh, func(a, b synthContact) int { return cmp.Compare(a.tick, b.tick) })
			}
			want := slices.Clone(fresh)
			slices.SortStableFunc(want, func(a, b synthContact) int { return cmp.Compare(a.tick, b.tick) })
			sorted = slices.Grow(sorted[:0], c.n)
			var got []synthContact
			got, counts = orderByTick(fresh, sorted, counts)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d span=%d: orderByTick = %v, want %v", c.n, c.span, got, want)
			}
		}
	}
}

// TestSyntheticReplayerRetires: processes with nothing left to emit
// leave the process list, and retirement does not disturb the stream.
func TestSyntheticReplayerRetires(t *testing.T) {
	// Every first event lies past a 1 ms horizon: exponential delays
	// are at least 1 ms, and the worm starts after the horizon.
	idle := testGen(1)
	idle.WormOnset = Minute
	s, err := newSynthStream(idle, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.procs) != 0 {
		t.Fatalf("%d processes kept for a population with no event in the horizon", len(s.procs))
	}

	cfg := testGen(3 * Minute)
	cfg.NormalClients = 60
	ticks := int(cfg.Duration / 1000)
	const cut = 100
	straight, err := newSynthStream(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	initial := len(straight.procs)
	a := &Replayer{msPerTick: 1000, fill: straight.fill}
	want := drain(t, a, ticks)
	if len(straight.procs) != 0 {
		t.Errorf("%d processes still live past the horizon", len(straight.procs))
	}

	skipped, err := newSynthStream(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := &Replayer{msPerTick: 1000, fill: skipped.fill}
	if _, err := b.Skip(cut); err != nil {
		t.Fatal(err)
	}
	if live := len(skipped.procs); live == 0 || live >= initial {
		t.Fatalf("%d of %d processes live at tick %d; the test needs retirements mid-run", live, initial, cut)
	}
	for tick := cut; tick < ticks; tick++ {
		batch, err := b.Contacts(tick)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(append([]Contact(nil), batch...), want[tick]) {
			t.Fatalf("tick %d after Skip(%d) diverges from the straight drain", tick, cut)
		}
	}
}

func BenchmarkReplayTick(b *testing.B) {
	cfg := testGen(24 * Hour)
	rp, err := NewSyntheticReplayer(cfg, 1000)
	if err != nil {
		b.Fatal(err)
	}
	maxTick := int(cfg.Duration / 1000)
	tick := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tick == maxTick {
			b.StopTimer()
			if rp, err = NewSyntheticReplayer(cfg, 1000); err != nil {
				b.Fatal(err)
			}
			tick = 0
			b.StartTimer()
		}
		if _, err := rp.Contacts(tick); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}
