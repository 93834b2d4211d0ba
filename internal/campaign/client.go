package campaign

import "followscent/internal/wire"

// Client is a coordinator connection. A campaign worker shares one
// between its scan handler and its lease renewer; wire.Client
// serialises their round trips.
type Client = wire.Client[Request, Response]

// Dial connects to a coordinator at addr (TCP).
func Dial(addr string) (*Client, error) { return wire.Dial[Request, Response](addr) }
