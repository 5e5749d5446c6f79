package worm

// Proto is the transport/network protocol of a worm's scan packets.
type Proto uint8

// Protocols of the worm scans in the paper's traces: Blaster probes
// TCP/135, Welchia pings with ICMP echo, DNS answers arrive over UDP.
const (
	ProtoTCP Proto = iota + 1
	ProtoUDP
	ProtoICMP
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return "proto?"
	}
}
