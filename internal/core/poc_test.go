package core

import "testing"

func TestDCachePoCEndToEnd(t *testing.T) {
	// Figure 9's full flow, deterministic: both bit values must decode
	// correctly through the QLRU replacement-state receiver.
	p := NewDCachePoC("invisispec-spectre", 0)
	for secret := 0; secret <= 1; secret++ {
		out, err := p.RunBit(secret, uint64(secret+1))
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK {
			t.Fatalf("secret=%d: receiver saw inconsistent state (latA=%d latB=%d)",
				secret, out.LatA, out.LatB)
		}
		if out.Decoded != secret {
			t.Errorf("secret=%d decoded as %d", secret, out.Decoded)
		}
		if out.Cycles <= 0 {
			t.Error("no cycle accounting")
		}
	}
}

func TestDCachePoCAgainstDoM(t *testing.T) {
	// §4.2 motivates the attack against Delay-on-Miss specifically.
	p := NewDCachePoC("dom", 0)
	for secret := 0; secret <= 1; secret++ {
		out, err := p.RunBit(secret, uint64(secret+1))
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK || out.Decoded != secret {
			t.Errorf("dom secret=%d decoded=%d ok=%v", secret, out.Decoded, out.OK)
		}
	}
}

func TestICachePoCEndToEnd(t *testing.T) {
	for _, scheme := range []string{"invisispec-spectre", "dom"} {
		p := NewICachePoC(scheme, 0)
		for secret := 0; secret <= 1; secret++ {
			out, err := p.RunBit(secret, uint64(secret+1))
			if err != nil {
				t.Fatal(err)
			}
			if !out.OK || out.Decoded != secret {
				t.Errorf("%s secret=%d decoded=%d ok=%v latA=%d",
					scheme, secret, out.Decoded, out.OK, out.LatA)
			}
		}
	}
}

func TestMSHRPoCEndToEnd(t *testing.T) {
	p := &PoC{SchemeName: "invisispec-spectre", Kind: MSHRPoC}
	for secret := 0; secret <= 1; secret++ {
		out, err := p.RunBit(secret, uint64(secret+1))
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK || out.Decoded != secret {
			t.Errorf("secret=%d decoded=%d ok=%v", secret, out.Decoded, out.OK)
		}
	}
}

func TestPoCBlockedBySchemesOutsideTable1(t *testing.T) {
	// The D-Cache PoC rides the GDNPEU VD-VD channel, which Table 1 says
	// is closed on Futuristic-shadow schemes: the receiver must then see a
	// secret-INdependent order.
	for _, scheme := range []string{"invisispec-futuristic", "muontrap", "fence-spectre"} {
		p := NewDCachePoC(scheme, 0)
		out0, err := p.RunBit(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		out1, err := p.RunBit(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out0.OK && out1.OK && out0.Decoded != out1.Decoded {
			t.Errorf("%s: PoC still distinguishes secrets (%d vs %d)",
				scheme, out0.Decoded, out1.Decoded)
		}
	}
}

func TestPoCNoisyButUsable(t *testing.T) {
	// At the Figure 11 operating points, single trials must be right far
	// more often than wrong, but not perfect (otherwise there is no curve).
	p := NewDCachePoC("invisispec-spectre", 40)
	p.ReplNoisePct = 5
	good, wrong := 0, 0
	for i := 0; i < 30; i++ {
		secret := i % 2
		out, err := p.RunBit(secret, uint64(300+i*11))
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK {
			continue
		}
		if out.Decoded == secret {
			good++
		} else {
			wrong++
		}
	}
	if good <= wrong*2 {
		t.Errorf("channel too noisy: good=%d wrong=%d", good, wrong)
	}
}

func TestPoCUnknownScheme(t *testing.T) {
	p := NewDCachePoC("not-a-scheme", 0)
	if _, err := p.RunBit(0, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestPoCKindString(t *testing.T) {
	for _, k := range []PoCKind{DCachePoC, ICachePoC, MSHRPoC} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if PoCKind(9).String() != "poc(9)" {
		t.Error("unknown kind rendering")
	}
}

func TestQLRUReceiverConstruction(t *testing.T) {
	cfg := AttackConfig().Cache
	l := DefaultLayout(cfg)
	r, err := NewQLRUReceiver(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	ways := cfg.LLC.Ways
	if len(r.EVS1) != ways-1 || len(r.EVS2) != ways-1 {
		t.Fatalf("eviction set sizes %d/%d, want %d", len(r.EVS1), len(r.EVS2), ways-1)
	}
	seen := map[int64]bool{l.AAddr: true, l.BAddr: true, l.GadgetBase: true}
	for _, a := range append(append([]int64{}, r.EVS1...), r.EVS2...) {
		if seen[a] {
			t.Errorf("eviction line %#x duplicated or colliding", a)
		}
		seen[a] = true
	}
	if p := r.PrimeProgram(); p.Validate() != nil {
		t.Error("invalid prime program")
	}
	if p := r.ProbeProgram(); p.Validate() != nil {
		t.Error("invalid probe program")
	}
}

func TestQLRUReceiverDecode(t *testing.T) {
	r := &QLRUReceiver{}
	if bit, ok := r.Decode(60, 250); !ok || bit != 0 {
		t.Error("fast B must decode 0")
	}
	if bit, ok := r.Decode(250, 60); !ok || bit != 1 {
		t.Error("slow B must decode 1")
	}
	if _, ok := r.Decode(60, 60); ok {
		t.Error("both-fast must be flagged as noise")
	}
}

func TestFlushReloadReceiverDecode(t *testing.T) {
	r := &FlushReloadReceiver{Target: 0x1000}
	if bit, ok := r.Decode(60); !ok || bit != 0 {
		t.Error("fast reload decodes 0 (target fetched)")
	}
	if bit, ok := r.Decode(250); !ok || bit != 1 {
		t.Error("slow reload decodes 1 (frontend throttled)")
	}
	if r.ReloadProgram().Validate() != nil {
		t.Error("invalid reload program")
	}
}
