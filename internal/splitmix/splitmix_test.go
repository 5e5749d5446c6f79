package splitmix

import "testing"

// The stream from counter 0 is the reference SplitMix64 sequence.
func TestNextMatchesReferenceSequence(t *testing.T) {
	var state uint64
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Next(&state); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	r := New(0)
	r.SetState(0)
	if got := r.Uint64(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Rand from counter 0 drew %#x", got)
	}
}
