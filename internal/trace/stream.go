package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// ReadFunc parses records serialized by WriteTo and invokes fn on each,
// without materializing the whole trace — the constant-memory path for
// multi-day traces. fn returning an error aborts the scan.
func ReadFunc(r io.Reader, fn func(*Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		rec, err := parseRecord(text)
		if err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrBadRecord, line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: read: %w", err)
	}
	return nil
}

// parseRecord parses one WriteTo line with per-field bounds checking:
// times and TTLs must fit non-negative int64, addresses 32 bits,
// protocol and flags 8 bits, ports 16 bits.
func parseRecord(text string) (Record, error) {
	fields := strings.Split(text, "\t")
	if len(fields) != 9 {
		return Record{}, fmt.Errorf("%d fields, want 9", len(fields))
	}
	bits := [9]int{63, 32, 32, 8, 16, 16, 8, 32, 63}
	var vals [9]uint64
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, bits[i])
		if err != nil {
			return Record{}, fmt.Errorf("field %d: %v", i, err)
		}
		vals[i] = v
	}
	return Record{
		Time:      int64(vals[0]),
		Src:       ratelimit.IP(vals[1]),
		Dst:       ratelimit.IP(vals[2]),
		Proto:     worm.Proto(vals[3]),
		SrcPort:   uint16(vals[4]),
		DstPort:   uint16(vals[5]),
		Flags:     TCPFlag(vals[6]),
		DNSAnswer: ratelimit.IP(vals[7]),
		DNSTTL:    int64(vals[8]),
	}, nil
}
