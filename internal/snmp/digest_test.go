package snmp

import (
	"math/rand"
	"testing"
	"time"

	"nmsl/internal/mib"
)

func digestTestConfig() *Config {
	return &Config{
		AdminCommunity: "adm",
		Communities: map[string]*CommunityConfig{
			"public": {
				Access:      mib.AccessReadOnly,
				MinInterval: 5 * time.Minute,
				View: []View{
					{Prefix: mib.OID{1, 3, 6, 1, 2, 1, 1}, Access: mib.AccessReadOnly},
				},
			},
		},
	}
}

func TestConfigDigestDeterministic(t *testing.T) {
	a, b := digestTestConfig(), digestTestConfig()
	if a.Digest() == "" {
		t.Fatal("digest empty")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("equal configs digest differently: %s vs %s", a.Digest(), b.Digest())
	}
	if a.Digest() != a.Clone().Digest() {
		t.Fatal("clone digests differently")
	}
	b.Communities["public"].MinInterval = time.Minute
	if a.Digest() == b.Digest() {
		t.Fatal("different configs share a digest")
	}
	var nilCfg *Config
	if nilCfg.Digest() != "" {
		t.Fatalf("nil digest %q, want empty", nilCfg.Digest())
	}
}

// TestAdminFetchConfig pins the read half of the live install path: the
// admin community can round-trip the agent's configuration through the
// reserved config object, non-admin communities cannot.
func TestAdminFetchConfig(t *testing.T) {
	cfg := digestTestConfig()
	agent := NewAgent(NewStore(), cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	client, err := Dial(addr.String(), "adm")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(200 * time.Millisecond)
	got, err := client.FetchConfig()
	if err != nil {
		t.Fatalf("admin fetch: %v", err)
	}
	if got.Digest() != cfg.Digest() {
		t.Fatalf("fetched digest %s != live digest %s", got.Digest(), cfg.Digest())
	}

	// Install a replacement and fetch again: the digest must follow.
	next := digestTestConfig()
	next.Communities["public"].MinInterval = time.Minute
	if err := client.InstallConfig(next); err != nil {
		t.Fatalf("install: %v", err)
	}
	got2, err := client.FetchConfig()
	if err != nil {
		t.Fatalf("refetch: %v", err)
	}
	if got2.Digest() != next.Digest() {
		t.Fatalf("refetched digest %s != installed digest %s", got2.Digest(), next.Digest())
	}

	// A granted-but-not-admin community must not see the config object.
	pub, err := Dial(addr.String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.SetTimeout(200 * time.Millisecond)
	pub.SetRetries(0)
	if _, err := pub.FetchConfig(); err == nil {
		t.Fatal("non-admin community fetched the config object")
	}
}

// TestBackoffDelayOverflow is the regression for the uncapped-overflow
// bug: with backoffMax 0, base << k wrapped negative at large k and the
// guard never clamped, so retries tight-looped with zero delay.
func TestBackoffDelayOverflow(t *testing.T) {
	for _, k := range []int{40, 62, 63, 64, 100, 1000} {
		d := Backoff(50*time.Millisecond, 0, k, rand.Int63n)
		if d <= 0 {
			t.Errorf("k=%d: delay %v, want positive (overflow not clamped)", k, d)
		}
		if d > MaxBackoff+MaxBackoff/2 {
			t.Errorf("k=%d: delay %v exceeds jittered clamp %v", k, d, MaxBackoff+MaxBackoff/2)
		}
	}
	// With a cap configured the clamp must land at the cap, jitter aside.
	for _, k := range []int{40, 63, 100} {
		d := Backoff(50*time.Millisecond, 2*time.Second, k, rand.Int63n)
		if d <= 0 || d > 3*time.Second {
			t.Errorf("capped k=%d: delay %v outside (0, 3s]", k, d)
		}
	}
}
