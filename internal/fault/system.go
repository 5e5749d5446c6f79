package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/splitmix"
)

// ErrInjected marks an error produced by the fault harness rather than
// the system under test.
var ErrInjected = errors.New("fault: injected failure")

// Plan is a seeded system-fault schedule for a batch of replicas: which
// attempts panic, stall, or error is a pure function of (Seed, replica
// index, attempt number), so a chaos run is reproducible attempt for
// attempt.
type Plan struct {
	// Seed drives the per-attempt fault decisions.
	Seed int64
	// PanicProb is the per-attempt probability of an injected panic.
	PanicProb float64
	// ErrorProb is the per-attempt probability of an injected transient
	// error (returned, not panicked — exercises the retry path without
	// unwinding the stack).
	ErrorProb float64
	// StallProb is the per-attempt probability of an injected stall of
	// StallFor before the real task runs — exercises per-task deadlines.
	StallProb float64
	// StallFor is how long an injected stall sleeps (it still honours
	// context cancellation, as a well-behaved-but-slow replica would).
	StallFor time.Duration
	// FailIndexes lists replica indexes that fail permanently: every
	// attempt panics, modeling a deterministic bug in one replica's
	// input. Retries cannot save these; the batch must degrade.
	FailIndexes []int
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"panic", p.PanicProb}, {"error", p.ErrorProb}, {"stall", p.StallProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s probability %v out of [0,1]", pr.name, pr.v)
		}
	}
	if p.StallProb > 0 && p.StallFor <= 0 {
		return fmt.Errorf("fault: stall probability set without a stall duration")
	}
	return nil
}

// Wrap returns a runner.Task that injects the plan's faults in front of
// task. Attempt numbers are tracked per replica index (the runner does
// not expose them), so the wrapped task must only be used for one
// Pool.Run call at a time.
func (p *Plan) Wrap(task runner.Task) runner.Task {
	permanent := make(map[int]bool, len(p.FailIndexes))
	for _, i := range p.FailIndexes {
		permanent[i] = true
	}
	var mu sync.Mutex
	attempts := make(map[int]int)
	return func(ctx context.Context, index int) (runner.Report, error) {
		mu.Lock()
		attempts[index]++
		attempt := attempts[index]
		mu.Unlock()

		if permanent[index] {
			panic(fmt.Sprintf("fault: injected permanent panic (replica %d, attempt %d)", index, attempt))
		}
		// One draw stream per (index, attempt): decisions are independent
		// of scheduling order and of how other replicas fared.
		r := splitmix.New(uint64(p.Seed) ^ uint64(index)<<20 ^ uint64(attempt))
		if p.StallProb > 0 && r.Float64() < p.StallProb {
			t := time.NewTimer(p.StallFor)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return runner.Report{}, ctx.Err()
			}
		}
		if p.PanicProb > 0 && r.Float64() < p.PanicProb {
			panic(fmt.Sprintf("fault: injected panic (replica %d, attempt %d)", index, attempt))
		}
		if p.ErrorProb > 0 && r.Float64() < p.ErrorProb {
			return runner.Report{}, fmt.Errorf("%w: transient (replica %d, attempt %d)", ErrInjected, index, attempt)
		}
		return task(ctx, index)
	}
}

// Corrupt returns a copy of data with a seed-determined selection of
// bytes flipped — the snapshot-corruption fault used to prove that
// checkpoint restore rejects damaged files with an error instead of
// panicking or silently resuming from garbage. At least one byte is
// always flipped (on non-empty input).
func Corrupt(data []byte, seed int64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	r := NewRand(seed)
	// Flip ~1% of bytes, at least one.
	n := len(out) / 100
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		pos := int(r.Uint64() % uint64(len(out)))
		out[pos] ^= byte(1 + r.Uint64()%255)
	}
	return out
}
