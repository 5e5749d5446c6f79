package trace

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// FuzzParseRecord ensures the record parser never panics and that every
// successfully parsed record round-trips through WriteTo/Read.
func FuzzParseRecord(f *testing.F) {
	f.Add("1\t2\t3\t1\t5\t6\t0\t0\t0")
	f.Add("0\t167772160\t134744072\t2\t53\t32768\t0\t134744073\t7200000")
	f.Add("")
	f.Add("x\ty")
	f.Add("1\t2\t3\t4\t5\t6\t7\t8\t9\t10")
	f.Add("-1\t2\t3\t4\t5\t6\t7\t8\t9")
	f.Add("18446744073709551615\t2\t3\t4\t5\t6\t7\t8\t9")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := parseRecord(line)
		if err != nil {
			return // malformed input is fine as long as it doesn't panic
		}
		// Round trip: serialize and re-parse.
		tr := &Trace{Records: []Record{rec}}
		var b strings.Builder
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if len(got.Records) != 1 || got.Records[0] != rec {
			t.Fatalf("round trip changed record: %+v vs %+v", got.Records[0], rec)
		}
	})
}

// FuzzAnalyzerRobustness runs the aggregate analysis over arbitrary
// (but time-ordered) five-record traces: it must never panic and always
// produce consistent histograms.
func FuzzAnalyzerRobustness(f *testing.F) {
	f.Add(uint32(0x0A000001), uint32(0x08080808), uint8(1), uint16(80), int64(1000))
	f.Add(uint32(0x08080808), uint32(0x0A000001), uint8(2), uint16(53), int64(0))
	f.Fuzz(func(t *testing.T, src, dst uint32, proto uint8, port uint16, dt int64) {
		if dt < 0 {
			dt = -dt
		}
		tr := &Trace{}
		now := int64(0)
		for i := 0; i < 5; i++ {
			tr.Records = append(tr.Records, Record{
				Time:    now,
				Src:     ratelimit.IP(src + uint32(i)),
				Dst:     ratelimit.IP(dst - uint32(i)),
				Proto:   worm.Proto(proto),
				DstPort: port,
			})
			now += dt % (20 * Second)
		}
		stats, err := AnalyzeAggregate(tr, []int{0, 1, 2}, 5*Second)
		if err != nil {
			t.Fatal(err)
		}
		if stats.All.Total() < 1 {
			t.Fatal("no windows recorded")
		}
		if stats.NonDNS.Max() > stats.All.Max() {
			t.Fatal("refinement exceeded raw count")
		}
	})
}

// FuzzReplayer feeds arbitrary bytes to the streaming trace replayer
// (NewRecordReplayer) and drives it with Skip and Contacts. No input may
// panic; a malformed or time-disordered stream must surface as an error.
// Every batch must be grouped by monitored host ascending, and Skip(n)
// on a fresh stream must report exactly the contacts that n Contacts
// calls return — the invariant checkpoint restore relies on.
func FuzzReplayer(f *testing.F) {
	tr, err := Generate(testGen(5 * Second))
	if err != nil {
		f.Fatal(err)
	}
	tr.Records = tr.Records[:min(len(tr.Records), 24)]
	var seed bytes.Buffer
	if _, err := tr.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint16(1000), uint8(2))
	f.Add([]byte("5000\t167772161\t16909060\t1\t1000\t80\t1\t0\t0\n"+
		"4000\t167772161\t16909060\t1\t1001\t80\t1\t0\t0\n"), uint16(1000), uint8(0))
	f.Add([]byte("1\t2\n"), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, ms uint16, skip uint8) {
		const ticks = 16
		msPerTick := int64(ms) + 1
		n := int(skip % ticks)
		a, err := NewRecordReplayer(bytes.NewReader(data), msPerTick)
		if err != nil {
			t.Fatal(err)
		}
		var consumed int64
		failedAt := ticks // the tick whose Contacts call failed, if any
		for tick := 0; tick < ticks; tick++ {
			batch, err := a.Contacts(tick)
			if err != nil {
				if !errors.Is(err, ErrBadRecord) && !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("tick %d: %v, want ErrBadRecord", tick, err)
				}
				failedAt = tick
				break
			}
			for i, c := range batch {
				if c.Host < 0 || i > 0 && batch[i-1].Host > c.Host {
					t.Fatalf("tick %d: batch not grouped by host: %v", tick, batch)
				}
			}
			if tick < n {
				consumed += int64(len(batch))
			}
		}
		b, err := NewRecordReplayer(bytes.NewReader(data), msPerTick)
		if err != nil {
			t.Fatal(err)
		}
		skipped, err := b.Skip(n)
		switch {
		case failedAt < n && err == nil:
			t.Fatalf("Skip(%d) read cleanly past tick %d, where Contacts failed", n, failedAt)
		case failedAt >= n && err != nil:
			t.Fatalf("Skip(%d) failed on ticks Contacts read cleanly: %v", n, err)
		case err == nil && skipped != consumed:
			t.Fatalf("Skip(%d) skipped %d contacts; Contacts returned %d", n, skipped, consumed)
		}
	})
}
