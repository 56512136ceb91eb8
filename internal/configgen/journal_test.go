package configgen

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// TestJournalRoundTrip: a journaled rollout leaves a journal whose
// replay reconstructs the plan, every pre-image and every result.
func TestJournalRoundTrip(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := startRolloutFleet(t, m, "adm", nil)
	path := filepath.Join(t.TempDir(), "rollout.journal")

	report, err := DistributeContext(context.Background(), m, targets,
		WithWorkers(4),
		WithRetries(1),
		WithBackoff(time.Millisecond, 2*time.Millisecond),
		WithAttemptTimeout(200*time.Millisecond),
		WithJournal(path),
		WithMetrics(obs.Disabled),
	)
	if err != nil || !report.OK() {
		t.Fatalf("rollout: err=%v %s", err, report.Summary())
	}

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(st.Plan) != len(targets) {
		t.Fatalf("plan has %d targets, want %d", len(st.Plan), len(targets))
	}
	if st.Truncated || st.GateFailed {
		t.Fatalf("clean journal replayed as truncated=%v gateFailed=%v", st.Truncated, st.GateFailed)
	}
	configs := Generate(m)
	for _, pt := range st.Plan {
		ts := st.ByKey[targetKey(pt.Instance, pt.Addr)]
		if ts == nil {
			t.Fatalf("no state for planned target %s", pt.Instance)
		}
		if ts.PreImage == nil {
			t.Errorf("%s: no pre-image journaled", pt.Instance)
		}
		if !ts.HasResult || ts.Status != StatusInstalled {
			t.Errorf("%s: hasResult=%v status=%v", pt.Instance, ts.HasResult, ts.Status)
		}
		want := DesiredConfig(configs[pt.Instance], Target{InstanceID: pt.Instance, Addr: pt.Addr, AdminCommunity: pt.Admin}).Digest()
		if ts.InstalledDigest != want {
			t.Errorf("%s: installed digest %.12s != desired %.12s", pt.Instance, ts.InstalledDigest, want)
		}
		if pt.Digest != want {
			t.Errorf("%s: planned digest %.12s != desired %.12s", pt.Instance, pt.Digest, want)
		}
	}

	// A journal already on disk must refuse a fresh rollout.
	if _, err := DistributeContext(context.Background(), m, targets, WithJournal(path), WithMetrics(obs.Disabled)); err == nil {
		t.Fatal("second rollout overwrote an existing journal")
	}
}

// TestReplayJournalRejects pins the replay rules: empty journals, torn
// final lines, corrupt interior lines, unknown kinds, unplanned targets
// and tampered pre-images.
func TestReplayJournalRejects(t *testing.T) {
	plan := `{"kind":"plan","targets":[{"instance":"a","addr":"1.2.3.4:1","digest":"d1"}]}` + "\n"
	result := `{"kind":"result","instance":"a","addr":"1.2.3.4:1","digest":"d1","status":"installed","attempts":1}` + "\n"

	t.Run("empty", func(t *testing.T) {
		if _, err := ReplayJournal(strings.NewReader("")); !errors.Is(err, ErrJournalEmpty) {
			t.Fatalf("err = %v, want ErrJournalEmpty", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		st, err := ReplayJournal(strings.NewReader(plan + result))
		if err != nil {
			t.Fatal(err)
		}
		ts := st.ByKey[targetKey("a", "1.2.3.4:1")]
		if ts == nil || !ts.HasResult || ts.Status != StatusInstalled || ts.InstalledDigest != "d1" {
			t.Fatalf("state %+v", ts)
		}
	})
	t.Run("torn final line ignored", func(t *testing.T) {
		st, err := ReplayJournal(strings.NewReader(plan + result[:len(result)/2]))
		if err != nil {
			t.Fatalf("torn final line: %v", err)
		}
		if !st.Truncated {
			t.Fatal("Truncated not reported")
		}
		if st.ByKey[targetKey("a", "1.2.3.4:1")].HasResult {
			t.Fatal("torn result applied")
		}
	})
	t.Run("corrupt interior line", func(t *testing.T) {
		if _, err := ReplayJournal(strings.NewReader(plan + "garbage{{{\n" + result)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("first record not plan", func(t *testing.T) {
		if _, err := ReplayJournal(strings.NewReader(result)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("second plan", func(t *testing.T) {
		if _, err := ReplayJournal(strings.NewReader(plan + plan)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("unplanned target", func(t *testing.T) {
		bad := `{"kind":"result","instance":"ghost","addr":"9.9.9.9:9","status":"installed"}` + "\n"
		if _, err := ReplayJournal(strings.NewReader(plan + bad)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		bad := `{"kind":"mystery"}` + "\n"
		if _, err := ReplayJournal(strings.NewReader(plan + bad)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("unknown status", func(t *testing.T) {
		bad := `{"kind":"result","instance":"a","addr":"1.2.3.4:1","status":"exploded"}` + "\n"
		if _, err := ReplayJournal(strings.NewReader(plan + bad)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("tampered pre-image digest", func(t *testing.T) {
		bad := `{"kind":"preimage","instance":"a","addr":"1.2.3.4:1","digest":"not-the-hash","config":{"communities":{},"adminCommunity":"adm"}}` + "\n"
		if _, err := ReplayJournal(strings.NewReader(plan + bad)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("err = %v, want ErrJournalCorrupt", err)
		}
	})
	t.Run("gate record", func(t *testing.T) {
		gate := `{"kind":"gate-failed","wave":0,"gate":"boom"}` + "\n"
		st, err := ReplayJournal(strings.NewReader(plan + gate))
		if err != nil {
			t.Fatal(err)
		}
		if !st.GateFailed {
			t.Fatal("gate record not reflected")
		}
	})
}

// FuzzJournalReplay: replay must never panic and never fabricate state
// — any input either errors cleanly or yields a state consistent with
// its own plan.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"kind":"plan","targets":[{"instance":"a","addr":"1:1","digest":"d"}]}` + "\n"))
	f.Add([]byte(`{"kind":"plan","targets":[{"instance":"a","addr":"1:1","digest":"d"}]}` + "\n" +
		`{"kind":"result","instance":"a","addr":"1:1","digest":"d","status":"installed","attempts":2}` + "\n"))
	f.Add([]byte(`{"kind":"plan","targets":[{"instance":"a","addr":"1:1","digest":"d"}]}` + "\n" +
		`{"kind":"result","instance":"a","addr":"1:1","dig`)) // torn
	f.Add([]byte("\x00\x01\x02 not json at all\n"))
	f.Add([]byte(`{"kind":"gate-failed","wave":3,"gate":"x"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReplayJournal(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatal("error with non-nil state")
			}
			return
		}
		// Whatever replayed must be internally consistent: every state
		// belongs to a planned target, and results carry valid statuses.
		if len(st.ByKey) != len(st.Plan) {
			t.Fatalf("%d states for %d planned targets", len(st.ByKey), len(st.Plan))
		}
		for key, ts := range st.ByKey {
			if targetKey(ts.Planned.Instance, ts.Planned.Addr) != key {
				t.Fatalf("state keyed %q holds target %s@%s", key, ts.Planned.Instance, ts.Planned.Addr)
			}
			if ts.HasResult {
				if _, err := parseRolloutStatus(ts.Status.String()); err != nil {
					t.Fatalf("replayed invalid status %v", ts.Status)
				}
			}
			if ts.PreImage != nil && ts.PreImage.Digest() != ts.PreImageDigest {
				t.Fatal("pre-image digest mismatch survived replay")
			}
		}
	})
}

// TestParseTargets covers the fleet-file format.
func TestParseTargets(t *testing.T) {
	in := `
# fleet
a@x#0 127.0.0.1:1161
b@y#0 127.0.0.1:1162 special-admin

`
	targets, err := ParseTargets(strings.NewReader(in), "default-admin")
	if err != nil {
		t.Fatal(err)
	}
	want := []Target{
		{InstanceID: "a@x#0", Addr: "127.0.0.1:1161", AdminCommunity: "default-admin"},
		{InstanceID: "b@y#0", Addr: "127.0.0.1:1162", AdminCommunity: "special-admin"},
	}
	if len(targets) != len(want) {
		t.Fatalf("parsed %d targets, want %d", len(targets), len(want))
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Errorf("target %d = %+v, want %+v", i, targets[i], want[i])
		}
	}
	if _, err := ParseTargets(strings.NewReader("only-one-field\n"), "d"); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ParseTargets(strings.NewReader("a b c d\n"), "d"); err == nil {
		t.Fatal("four-field line accepted")
	}
}

// TestRollbackRestoresJournaledPreImages: an explicit Rollback of a
// completed journaled rollout returns every touched agent to its
// pre-rollout configuration.
func TestRollbackRestoresJournaledPreImages(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startRolloutFleetAgents(t, m, "adm")
	pre := map[string]string{}
	for _, tgt := range targets {
		pre[tgt.InstanceID] = agents[tgt.InstanceID].ConfigSnapshot().Digest()
	}
	path := filepath.Join(t.TempDir(), "rollout.journal")

	report, err := DistributeContext(context.Background(), m, targets,
		WithRetries(1),
		WithBackoff(time.Millisecond, 2*time.Millisecond),
		WithAttemptTimeout(200*time.Millisecond),
		WithJournal(path),
		WithMetrics(obs.Disabled),
	)
	if err != nil || !report.OK() {
		t.Fatalf("rollout: err=%v %s", err, report.Summary())
	}

	rb, err := Rollback(context.Background(), path,
		WithRetries(1),
		WithAttemptTimeout(200*time.Millisecond),
		WithMetrics(obs.Disabled),
	)
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if rb.RolledBack != len(targets) || rb.Failed != 0 {
		t.Fatalf("rollback report: %s", rb.Summary())
	}
	for _, tgt := range targets {
		if got := agents[tgt.InstanceID].ConfigSnapshot().Digest(); got != pre[tgt.InstanceID] {
			t.Errorf("%s: digest %.12s != pre-rollout %.12s", tgt.InstanceID, got, pre[tgt.InstanceID])
		}
	}

	// A second rollback is a no-op: the journal now records every
	// target rolled-back, so there are no candidates left and nothing
	// is re-applied.
	loads := map[string]int64{}
	for id, a := range agents {
		loads[id] = a.Stats().ConfigLoads
	}
	rb2, err := Rollback(context.Background(), path,
		WithRetries(1),
		WithAttemptTimeout(200*time.Millisecond),
		WithMetrics(obs.Disabled),
	)
	if err != nil || len(rb2.Results) != 0 {
		t.Fatalf("second rollback: err=%v %s", err, rb2.Summary())
	}
	for id, a := range agents {
		if a.Stats().ConfigLoads != loads[id] {
			t.Errorf("%s: idempotent rollback re-applied a config", id)
		}
	}
	if os.Getenv("NMSL_DEBUG_JOURNAL") != "" {
		blob, _ := os.ReadFile(path)
		t.Logf("journal:\n%s", blob)
	}
}

// TestParentWrittenJournalResumes replays testdata/journal_pr23.jsonl, the
// journal of a finished rollout of testdata/isp.nmsl written by the code
// before PR 28 (encoding/json blobs and digests) to three agents on
// mem://journal-fixture. Under today's codec every pre-image must still
// match its recorded digest and re-marshal to the bytes in the file, and
// a resume must find every planned digest current: no datagram, no
// install.
func TestParentWrittenJournalResumes(t *testing.T) {
	fixture, err := os.ReadFile("testdata/journal_pr23.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rollout.journal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	n, err := snmp.NewMemNet("journal-fixture", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	agents := map[string]*snmp.Agent{}
	for _, p := range st.Plan {
		ts := st.ByKey[targetKey(p.Instance, p.Addr)]
		blob, err := snmp.MarshalConfig(ts.PreImage)
		if err != nil || !bytes.Contains(fixture, append([]byte(`"config":`), blob...)) {
			t.Errorf("%s: pre-image re-marshals to %s (%v), not to the journal's bytes", p.Instance, blob, err)
		}
		agents[p.Instance] = snmp.NewAgent(snmp.NewStore(), &snmp.Config{AdminCommunity: p.Admin})
		if _, err := n.AddHost(p.Instance, agents[p.Instance]); err != nil {
			t.Fatal(err)
		}
	}
	src, err := os.ReadFile("../../testdata/isp.nmsl")
	if err != nil {
		t.Fatal(err)
	}
	report, err := ResumeRollout(context.Background(), buildModel(t, string(src)), path, WithMetrics(obs.Disabled))
	if err != nil || !report.OK() || report.Installed != len(st.Plan) || report.Attempts != 0 {
		t.Fatalf("resume: err=%v %s", err, report.Summary())
	}
	for id, a := range agents {
		if s := a.Stats(); s.Requests != 0 || s.ConfigLoads != 0 {
			t.Errorf("%s: resume sent %d requests and installed %d configurations", id, s.Requests, s.ConfigLoads)
		}
	}
}
