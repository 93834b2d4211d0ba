package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

func TestRotationIntervalEstimation(t *testing.T) {
	w := simnet.TestWorld(49)
	// Pool 65001-0 rotates daily; pool 65002-0 every 48h; 65003 is static.
	corpus := runCampaign(t, w, []ip6.Prefix{
		poolOf(t, w, 65001, 0).Prefix,
		poolOf(t, w, 65002, 0).Prefix,
		poolOf(t, w, 65003, 0).Prefix,
	}, 9)

	byAS := core.RotationIntervalByAS(corpus.IntervalSamples())
	if got := byAS[65001]; got < 0.9 || got > 1.1 {
		t.Errorf("AS65001 interval = %.2f days, want ~1", got)
	}
	if got := byAS[65002]; got < 1.8 || got > 2.2 {
		t.Errorf("AS65002 interval = %.2f days, want ~2", got)
	}
	// The static AS contributes no samples (nothing ever changed).
	if _, ok := byAS[65003]; ok {
		t.Errorf("static AS has an interval estimate: %v", byAS[65003])
	}
}

func TestIntervalSamplesSkipSingletons(t *testing.T) {
	rib := bgp.New()
	corpus := core.NewCorpus(rib)
	iid := ip6.EUI64FromMAC(ip6.MustParseMAC("38:10:d5:00:00:07"))
	addr := ip6.MustParsePrefix("2001:db8:7::/64").Addr().WithIID(iid)
	for day := 0; day < 5; day++ {
		sd := corpus.NewScanDay(day)
		sd.Record(addr, addr) // never moves
		sd.Commit()
	}
	if got := corpus.IntervalSamples(); len(got) != 0 {
		t.Fatalf("non-rotating device produced samples: %v", got)
	}
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	w := simnet.TestWorld(50)
	corpus := runCampaign(t, w, []ip6.Prefix{poolOf(t, w, 65001, 0).Prefix}, 3)

	var buf bytes.Buffer
	if err := corpus.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := core.NewCorpus(w.RIB())
	if err := core.LoadCorpus(bytes.NewReader(buf.Bytes()), loaded); err != nil {
		t.Fatal(err)
	}

	if loaded.NumIIDs() != corpus.NumIIDs() {
		t.Fatalf("IIDs: %d != %d", loaded.NumIIDs(), corpus.NumIIDs())
	}
	if loaded.TotalProbes != corpus.TotalProbes || loaded.TotalResponses != corpus.TotalResponses {
		t.Fatal("counters not restored")
	}
	t1, e1 := corpus.UniqueAddrs()
	t2, e2 := loaded.UniqueAddrs()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("unique addrs: %d/%d != %d/%d", t2, e2, t1, e1)
	}
	// The analyses agree on the round-tripped data.
	a1 := core.AllocationSizeByAS(corpus.AllocationSamples(0))
	a2 := core.AllocationSizeByAS(loaded.AllocationSamples(0))
	if len(a1) != len(a2) {
		t.Fatalf("allocation inference diverged: %v vs %v", a1, a2)
	}
	for asn, bits := range a1 {
		if a2[asn] != bits {
			t.Fatalf("AS%d: /%d != /%d", asn, a2[asn], bits)
		}
	}
	p1 := core.PoolSizeByAS(corpus.PoolSamples())
	p2 := core.PoolSizeByAS(loaded.PoolSamples())
	for asn, bits := range p1 {
		if p2[asn] != bits {
			t.Fatalf("pool AS%d: /%d != /%d", asn, p2[asn], bits)
		}
	}
	// Per-IID chronology survives.
	iids := corpus.IIDs()
	for _, iid := range iids[:min(10, len(iids))] {
		s1 := corpus.TimeSeries(iid)
		s2 := loaded.TimeSeries(iid)
		if len(s1) != len(s2) {
			t.Fatalf("series length differs for %x", uint64(iid))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("series diverged for %x at %d", uint64(iid), i)
			}
		}
	}
	// Saving the loaded corpus reproduces identical bytes.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save(load(save(x))) != save(x)")
	}
}

// TestLoadCorpusErrors feeds the loader malformed input. Every
// malformed line sits inside a closed segment after a valid header, and
// each case must fail with its own named error, not the header check.
func TestLoadCorpusErrors(t *testing.T) {
	const hdr = "# followscent corpus v3\n"
	for name, tc := range map[string]struct{ in, want string }{
		"no magic":      {"obs 0 0 :: 0 0 1\n", "not a corpus file"},
		"v1 magic":      {"# followscent corpus v1\nprobes 0\n", "not a corpus file"},
		"v2 magic":      {"# followscent corpus v2\nsnap 0\nendsnap\n", "corpus format v2 is retired"},
		"bad addr line": {hdr + "day 0\naddr 2001:db8::1 2001:db8::2\nendday 0\n", "line 3: malformed addr"},
		"addr unparsed": {hdr + "day 0\naddr 2001:db8::zz\nendday 0\n", "line 3: bad addr"},
		"addr EUI-64":   {hdr + "snap 0\naddr 2001:db8::3a10:d5ff:fe00:1\nendsnap\n", "line 3: addr 2001:db8::3a10:d5ff:fe00:1 is EUI-64"},
		"addr outside":  {hdr + "addr 2001:db8::1\n", `line 2: expected a day or snap header, got "addr 2001:db8::1"`},
		"empty":         {"", "empty corpus file"},
		"bad record":    {hdr + "day 0\nwhatever 1 2\nendday 0\n", `line 3: unknown record "whatever"`},
		"bad probes":    {hdr + "day 0\nprobes many\nendday 0\n", "line 3: strconv.ParseUint"},
		"bad obs":       {hdr + "day 0\nobs xyz\nendday 0\n", "line 3: malformed obs"},
		"bad addr":      {hdr + "day 0\nobs 0011223344556677 0 nonsense 0 0 1\nendday 0\n", "line 3: "},
		"obs off day":   {hdr + "day 0\nobs 0011223344556677 1 2001:db8::1 0 0 1\nendday 0\n", "line 3: obs for day 1 outside its segment"},
		"negative day":  {hdr + "day -1\nendday -1\n", `line 2: bad day "-1"`},
		"repeated day":  {hdr + "snap 0 0\nendsnap\n", "line 2: day 0 repeated"},
		"wrong endday":  {hdr + "day 1\nendday 2\n", `line 3: "endday 2" does not close this segment`},
		"endsnap+":      {hdr + "snap 0\nendsnap 0\n", `line 3: "endsnap 0" does not close this segment`},
		"stray closing": {hdr + "endday 0\n", "line 2: expected a day or snap header"},
	} {
		c := core.NewCorpus(bgp.New())
		err := core.LoadCorpus(strings.NewReader(tc.in), c)
		if err == nil {
			t.Errorf("%s: load succeeded", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
	}
	if err := core.LoadCorpus(strings.NewReader("# followscent corpus v2\n"), core.NewCorpus(bgp.New())); !errors.Is(err, core.ErrCorpusV2) {
		t.Errorf("v2 header: error %v, want core.ErrCorpusV2", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
