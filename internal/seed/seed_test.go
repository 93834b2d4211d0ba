package seed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

var vantage = ip6.MustParseAddr("2620:11f:7000::53")

// seedWorld is a compact world with /44 advertisements (16 /48s each) so
// the traceroute sweep stays fast; MaxPrefixBits is relaxed accordingly.
func seedWorld(seedVal uint64) *simnet.World {
	return simnet.MustBuild(simnet.WorldSpec{
		Seed: seedVal,
		Providers: []simnet.ProviderSpec{
			{
				ASN: 65101, Name: "SeedNetA", Country: "DE",
				Allocations:    []string{"2001:db8:10::/44"},
				RouterHops:     3,
				BorderRespProb: 0.3,
				Pools: []simnet.PoolSpec{{
					Prefix: "2001:db8:10::/48", AllocBits: 56,
					Rotation:  simnet.DailyStride(3),
					Occupancy: 0.5, EUIFrac: 0.9,
				}},
			},
			{
				ASN: 65102, Name: "SeedNetB", Country: "JP",
				Allocations:    []string{"2001:db8:20::/44"},
				RouterHops:     4,
				BorderRespProb: 0.2,
				Pools: []simnet.PoolSpec{{
					Prefix: "2001:db8:2f::/48", AllocBits: 60,
					Rotation:  simnet.Every(48 * time.Hour),
					Occupancy: 0.3, EUIFrac: 0.8,
				}},
			},
		},
	})
}

// scanner probes w from the vantage, one loopback per worker.
func scanner(w *simnet.World, workers, batch int) *zmap.Scanner {
	return &zmap.Scanner{
		NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
		Config:       zmap.Config{Source: vantage, Workers: workers, Batch: batch},
	}
}

var testConfig = Config{MaxTTL: 8, Seed: 3, TargetsPer48: 8, MaxPrefixBits: 40}

func generate(t *testing.T, w *simnet.World) []Record {
	t.Helper()
	records, err := Generate(context.Background(), scanner(w, 1, 0), w.RIB(), testConfig)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// TestGenerateGolden pins the seed dataset's bytes: one digest at every
// worker count and batch width, so a change that moves any seed record
// shows here.
func TestGenerateGolden(t *testing.T) {
	const want = "f4ca5b93d66e6a1a798586b0dd6236ba90fbaf66690ff767725d459afcf37b6a"
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{1, 8} {
			w := seedWorld(54)
			records, err := Generate(context.Background(), scanner(w, workers, batch), w.RIB(), testConfig)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, records); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
				t.Errorf("workers=%d batch=%d: %d records, sha256 %s, want %s",
					workers, batch, len(records), got, want)
			}
		}
	}
}

func TestGenerateFindsEUILastHops(t *testing.T) {
	w := seedWorld(51)
	// Wind the clock back a year: the seed campaign predates the study.
	w.Clock().Set(simnet.Epoch.Add(-400 * 24 * time.Hour))
	records := generate(t, w)
	if len(records) == 0 {
		t.Fatal("no seed records")
	}
	euis := 0
	seen48 := map[ip6.Prefix]bool{}
	for _, r := range records {
		if !r.Slash48.Contains(r.LastHop) && !simnet.TransitPrefix.Contains(r.LastHop) {
			t.Fatalf("last hop %s neither inside %s nor transit", r.LastHop, r.Slash48)
		}
		if seen48[r.Slash48] {
			t.Fatalf("duplicate /48 %s", r.Slash48)
		}
		seen48[r.Slash48] = true
		if r.IsEUI() {
			euis++
		}
	}
	if euis == 0 {
		t.Fatal("no EUI-64 last hops in seed")
	}
	// The EUI prefixes must include the dense /56-allocation pool /48.
	prefixes := EUIPrefixes(records)
	found := false
	for _, p := range prefixes {
		if p.String() == "2001:db8:10::/48" {
			found = true
		}
	}
	if !found {
		t.Errorf("dense pool /48 missing from %d EUI seed prefixes", len(prefixes))
	}
}

func TestEUIPrefixesUniqueness(t *testing.T) {
	eui := ip6.MustParsePrefix("2001:db8:1::/64").Addr().
		WithIID(ip6.EUI64FromMAC(ip6.MustParseMAC("38:10:d5:00:00:01")))
	nonEUI := ip6.MustParseAddr("2001:db8:2::1")
	records := []Record{
		{Slash48: ip6.MustParsePrefix("2001:db8:1::/48"), LastHop: eui},
		{Slash48: ip6.MustParsePrefix("2001:db8:2::/48"), LastHop: nonEUI},
		// The same EUI hop appearing for a second /48 disqualifies both.
		{Slash48: ip6.MustParsePrefix("2001:db8:3::/48"), LastHop: eui},
	}
	if got := EUIPrefixes(records); len(got) != 0 {
		t.Fatalf("EUIPrefixes = %v, want none (shared last hop)", got)
	}
	if got := EUIPrefixes(records[:2]); len(got) != 1 || got[0].String() != "2001:db8:1::/48" {
		t.Fatalf("EUIPrefixes = %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	w := seedWorld(52)
	records := generate(t, w)
	var buf bytes.Buffer
	if err := Write(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("round trip: %d != %d", len(back), len(records))
	}
	for i := range back {
		if back[i] != records[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], records[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	for _, bad := range []string{
		"2001:db8::/48",                  // missing addr
		"nonsense 2001:db8::1",           // bad prefix
		"2001:db8::/48 not-an-address x", // too many fields
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%q) succeeded", bad)
		}
	}
	// Comments and blanks are fine.
	recs, err := Read(strings.NewReader("# comment\n\n2001:db8::/48 2001:db8::1\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("Read with comments: %v, %d", err, len(recs))
	}
}

func TestGenerateErrors(t *testing.T) {
	w := seedWorld(53)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{MaxPrefixBits: 49}, "seed: no routed prefixes of /49 or longer"},
		{Config{MaxTTL: 256}, "seed: MaxTTL 256 out of range 1..255"},
		{Config{MaxTTL: -1}, "seed: MaxTTL -1 out of range 1..255"},
	} {
		opened := 0
		sc := scanner(w, 1, 0)
		sc.NewTransport = func() (zmap.Transport, error) {
			opened++
			return zmap.NewLoopback(w, 0), nil
		}
		_, err := Generate(context.Background(), sc, w.RIB(), tc.cfg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: err = %v, want %q", tc.cfg, err, tc.want)
		}
		if opened != 0 {
			t.Errorf("%+v: %d transports opened before the refusal", tc.cfg, opened)
		}
	}
}
