package scentd

// Wire protocol: the shared internal/wire framing (also spoken by the
// campaign coordinator). One Request yields exactly one Response;
// requests on one connection are answered in order.

// Request is one client query.
type Request struct {
	// Op selects the query: stats, lookup, prefixes, vendors, pools,
	// track.
	Op string `json:"op"`
	// Addr is the subject address for lookup (any observed response
	// address) and track (the device's last known EUI-64 address).
	Addr string `json:"addr,omitempty"`
	// IID is the subject interface identifier for prefixes, as 16 hex
	// digits.
	IID string `json:"iid,omitempty"`
	// Prefix optionally restricts vendors to one pool (CIDR).
	Prefix string `json:"prefix,omitempty"`
	// Days is the tracking horizon for track (default 7).
	Days int `json:"days,omitempty"`
	// Salt perturbs track probing (default 0x7ac4, the CLI's).
	Salt uint64 `json:"salt,omitempty"`
}

// Response is the answer to one Request. Days always carries the
// snapshot's committed day set — the version stamp clients use to know
// which corpus state answered them (and what the concurrency tests key
// their oracles by).
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Days  []int  `json:"days"`

	Stats    *StatsResult    `json:"stats,omitempty"`
	Lookup   *LookupResult   `json:"lookup,omitempty"`
	Prefixes *PrefixesResult `json:"prefixes,omitempty"`
	Vendors  []VendorRow     `json:"vendors,omitempty"`
	Pools    []PoolRow       `json:"pools,omitempty"`
	Track    *TrackResult    `json:"track,omitempty"`
}

// StatsResult is the op=stats payload: the corpus headline numbers.
type StatsResult struct {
	IIDs        int    `json:"iids"`
	Probes      uint64 `json:"probes"`
	Responses   uint64 `json:"responses"`
	UniqueAddrs int    `json:"unique_addrs"`
	UniqueEUI   int    `json:"unique_eui"`
}

// LookupResult is the op=lookup payload: the device history behind one
// observed response address.
type LookupResult struct {
	Found    bool   `json:"found"`
	IID      string `json:"iid,omitempty"`
	MAC      string `json:"mac,omitempty"`
	Vendor   string `json:"vendor,omitempty"`
	Prefixes int    `json:"prefixes,omitempty"` // distinct /64s held
	DaysSeen int    `json:"days_seen,omitempty"`
}

// PrefixesResult is the op=prefixes payload: every /64 the IID held.
type PrefixesResult struct {
	Found   bool        `json:"found"`
	IID     string      `json:"iid"`
	History []PrefixDay `json:"history,omitempty"`
}

// PrefixDay is one (day, /64) position of a tracked IID.
type PrefixDay struct {
	Day    int    `json:"day"`
	Prefix string `json:"prefix"`
}

// VendorRow is one op=vendors census row.
type VendorRow struct {
	OUI     string `json:"oui"`
	Vendor  string `json:"vendor"`
	Devices int    `json:"devices"`
}

// PoolRow is one op=pools row: the Algorithm 1/2 inferences for an AS.
type PoolRow struct {
	ASN       uint32 `json:"asn"`
	AllocBits int    `json:"alloc_bits"`
	PoolBits  int    `json:"pool_bits"`
}

// TrackResult is the op=track payload: a live §6 tracking run seeded
// from the snapshot's inferences.
type TrackResult struct {
	IID       string     `json:"iid"`
	History   []TrackRow `json:"history"`
	DaysFound int        `json:"days_found"`
	Slash64s  int        `json:"slash64s"`
}

// TrackRow is one tracking day.
type TrackRow struct {
	Day    int    `json:"day"`
	Found  bool   `json:"found"`
	Addr   string `json:"addr,omitempty"`
	Moved  bool   `json:"moved,omitempty"`
	Probes uint64 `json:"probes"`
}
