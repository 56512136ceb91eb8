package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"nmsl/internal/netsim"
)

// specText is a netsim specification held as editable text, next to the
// benchmark's own model of what the checker must say about it. The
// model is two slices: how often each domain's poller queries, and how
// many systems each domain has. The expected violation count follows
// from them alone (violations), so no expected answer ever comes from
// the program under test.
type specText struct {
	text []byte
	star bool
	// minutes[d] is the period of domain d's poller; the agents export
	// at ">= 5 minutes", so a poller below 5 is inconsistent.
	minutes []int
	// systems[d] is the number of systems (one agent each) in domain d.
	systems []int
}

// newSpecText renders the netsim internet p with every poller
// consistent, then makes exactly bad of them query every minute. The
// count is fixed and only the placement follows rng, so every seed
// gives the checker the same amount of work.
func newSpecText(p netsim.Params, bad int, rng *rand.Rand) (*specText, error) {
	p.InconsistencyRate = 0
	s := &specText{
		text:    []byte(netsim.Source(p)),
		star:    p.StarTargets,
		minutes: make([]int, p.Domains),
		systems: make([]int, p.Domains),
	}
	for d := range s.minutes {
		s.minutes[d] = 5
		s.systems[d] = p.SystemsPerDomain
	}
	for _, d := range rng.Perm(p.Domains)[:bad] {
		if err := s.setPollerMinutes(d, 1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *specText) domains() int { return len(s.minutes) }

func (s *specText) agents() int {
	n := 0
	for _, k := range s.systems {
		n += k
	}
	return n
}

// violations is the number of violations a correct checker reports: one
// per (inconsistent poller, agent it reaches). A ring poller reaches the
// agents of the next domain; a "*" poller reaches every agent.
func (s *specText) violations() int {
	all := s.agents()
	n := 0
	for d, m := range s.minutes {
		switch {
		case m >= 5:
		case s.star:
			n += all
		default:
			n += s.systems[(d+1)%len(s.systems)]
		}
	}
	return n
}

func (s *specText) sha256() string {
	sum := sha256.Sum256(s.text)
	return hex.EncodeToString(sum[:])
}

// splice replaces text[at:at+n] with repl.
func (s *specText) splice(at, n int, repl string) {
	if len(repl) == n {
		copy(s.text[at:], repl)
		return
	}
	out := make([]byte, 0, len(s.text)-n+len(repl))
	out = append(out, s.text[:at]...)
	out = append(out, repl...)
	s.text = append(out, s.text[at+n:]...)
}

// setPollerMinutes rewrites the frequency clause of domain d's poller.
// Every anchor must be found exactly where the netsim templates put it;
// if they drift the benchmark stops instead of measuring something else.
func (s *specText) setPollerMinutes(d, minutes int) error {
	head := fmt.Sprintf("\nprocess pollerT%d ::=\n", d)
	if s.star {
		head = fmt.Sprintf("\nprocess pollerT%d(Tgt: Process) ::=\n", d)
	}
	at := bytes.Index(s.text, []byte(head))
	if at < 0 {
		return fmt.Errorf("spec text: no poller declaration %q (netsim templates drifted?)", head)
	}
	old := fmt.Sprintf("frequency >= %d minutes;\nend process pollerT%d.", s.minutes[d], d)
	rel := bytes.Index(s.text[at:], []byte(old))
	if rel < 0 || rel > 200 {
		return fmt.Errorf("spec text: poller %d has no clause %q (netsim templates drifted?)", d, old)
	}
	s.splice(at+rel, len(old), fmt.Sprintf("frequency >= %d minutes;\nend process pollerT%d.", minutes, d))
	s.minutes[d] = minutes
	return nil
}

// addSystem declares one more system in domain d, running the domain's
// agent, and lists it first in the domain's membership.
func (s *specText) addSystem(d int) error {
	head := fmt.Sprintf("\ndomain dom%d ::=\n", d)
	at := bytes.Index(s.text, []byte(head))
	if at < 0 {
		return fmt.Errorf("spec text: no domain declaration %q (netsim templates drifted?)", head)
	}
	k := s.systems[d]
	s.splice(at, len(head), fmt.Sprintf(`
system "sys-%d-%d" ::=
    cpu sparc;
    interface ie0 net lan-%d type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agentT%d;
end system "sys-%d-%d".
%s    system "sys-%d-%d";
`, d, k, d, d, d, k, head, d, k))
	s.systems[d]++
	return nil
}
