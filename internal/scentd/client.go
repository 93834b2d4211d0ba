package scentd

import "followscent/internal/wire"

// Client is a blocking request/response connection to a scentd.
type Client = wire.Client[Request, Response]

// Dial connects to a scentd at addr (host:port).
func Dial(addr string) (*Client, error) { return wire.Dial[Request, Response](addr) }
