package faultnet

import (
	"net"

	"ddstore/internal/transport"
)

// Dialer wraps a transport dial function so every dialed connection is
// injected (client-side faults).
func (in *Injector) Dialer(base transport.DialFunc) transport.DialFunc {
	if base == nil {
		base = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		nc, err := base(addr)
		if err != nil {
			return nil, err
		}
		return in.Conn(nc), nil
	}
}
