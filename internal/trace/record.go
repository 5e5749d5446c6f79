// Package trace provides the Section 7 case-study substrate: flow
// records in the shape of the paper's anonymized campus traces, a
// synthetic generator for the four observed host classes (normal
// desktop clients, servers, peer-to-peer clients, and Blaster/Welchia-
// infected machines) calibrated to the published contact-rate
// percentiles, an analyzer that measures contact-rate CDFs under the
// paper's three refinements, classifies hosts, detects the two worms,
// and derives practical rate limits — and a streaming replay adapter
// (Replayer, NewRecordReplayer, NewSyntheticReplayer) that buckets a
// record stream into engine ticks so the simulator can be driven by
// trace traffic instead of β draws, with benign flows competing for
// the same rate-limiter credits as worm scans (DESIGN.md §17).
//
// The real traces (23 days from CMU ECE's edge router, August 15 –
// September 7, 2003) are not available; the generator synthesizes
// traffic whose analyzer-visible statistics match the numbers the paper
// reports, which is the part of the data the paper's conclusions rest
// on. See DESIGN.md for the substitution argument.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// Millisecond time units used throughout the package.
const (
	Second = int64(1000)
	Minute = 60 * Second
	Hour   = 60 * Minute
	Day    = 24 * Hour
)

// InternalPrefix is the anonymized address block of the monitored
// network: addresses with this upper half are "inside". The monitored
// subnet holds 1128 hosts in the paper.
const InternalPrefix = ratelimit.IP(0x0A000000)

// InternalMask selects the prefix bits of InternalPrefix.
const InternalMask = ratelimit.IP(0xFFFF0000)

// Internal reports whether addr belongs to the monitored network.
func Internal(addr ratelimit.IP) bool {
	return addr&InternalMask == InternalPrefix
}

// HostIP returns the internal address of host index i.
func HostIP(i int) ratelimit.IP {
	return InternalPrefix | ratelimit.IP(i&0xFFFF)
}

// HostIndex inverts HostIP (-1 for external addresses).
func HostIndex(addr ratelimit.IP) int {
	if !Internal(addr) {
		return -1
	}
	return int(addr &^ InternalMask)
}

// TCPFlag bits recorded for TCP packets.
type TCPFlag uint8

// TCP header flags.
const (
	FlagSYN TCPFlag = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Record is one observed packet/flow event at the edge router. The
// paper's traces recorded IP and transport headers plus full DNS
// contents; DNSAnswer carries the resolved address for DNS responses so
// the analyzer can rebuild per-host DNS caches.
type Record struct {
	// Time is milliseconds since trace start.
	Time int64
	// Src and Dst are anonymized IPv4 addresses.
	Src, Dst ratelimit.IP
	// Proto is the transport (or ICMP).
	Proto worm.Proto
	// SrcPort and DstPort are transport ports (0 for ICMP).
	SrcPort, DstPort uint16
	// Flags carries TCP flags (TCP only).
	Flags TCPFlag
	// DNSAnswer is the address resolved by a DNS response (records with
	// SrcPort 53 and a non-zero answer), with DNSTTL milliseconds of
	// validity.
	DNSAnswer ratelimit.IP
	// DNSTTL is the answer's validity in milliseconds.
	DNSTTL int64
}

// IsDNSResponse reports whether the record is a DNS response carrying
// an answer.
func (r *Record) IsDNSResponse() bool {
	return r.Proto == worm.ProtoUDP && r.SrcPort == 53 && r.DNSAnswer != 0
}

// Outbound reports whether the record leaves the monitored network.
func (r *Record) Outbound() bool { return Internal(r.Src) && !Internal(r.Dst) }

// Inbound reports whether the record enters the monitored network.
func (r *Record) Inbound() bool { return !Internal(r.Src) && Internal(r.Dst) }

// Trace is a time-ordered sequence of records.
type Trace struct {
	Records []Record
}

// Sort orders the records by time (stable, so same-timestamp records
// keep generation order).
func (t *Trace) Sort() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Time < t.Records[j].Time
	})
}

// Duration returns the time of the last record (0 for an empty trace).
func (t *Trace) Duration() int64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time
}

// ErrBadRecord reports a malformed serialized record.
var ErrBadRecord = errors.New("trace: malformed record")

// WriteTo serializes the trace as tab-separated text, one record per
// line: time src dst proto sport dport flags dnsAnswer dnsTTL.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for i := range t.Records {
		r := &t.Records[i]
		c, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Time, uint32(r.Src), uint32(r.Dst), r.Proto, r.SrcPort, r.DstPort,
			r.Flags, uint32(r.DNSAnswer), r.DNSTTL)
		n += int64(c)
		if err != nil {
			return n, fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("trace: flush: %w", err)
	}
	return n, nil
}

// Read parses a trace serialized by WriteTo, materializing every
// record. For constant-memory processing of large traces use ReadFunc.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	if err := ReadFunc(r, func(rec *Record) error {
		t.Records = append(t.Records, *rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}
