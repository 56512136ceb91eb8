package configgen

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Section 5 of the paper observes that "it may be too time consuming to
// generate the configuration output from one central location … It may be
// possible to perform the configuration phase in a distributed manner. If
// a process's configuration depends only on its own specification, the
// configuration information for that process can be generated from its
// specification alone." Our per-instance derivation has exactly that
// property — each agent's configuration depends only on its own exports
// and the exports of domains containing it — so generation and
// installation parallelize per network element. DistributeContext
// (rollout.go) implements the fan-out.

// Target tells a rollout where one agent instance lives.
type Target struct {
	// InstanceID is the consistency-model instance, e.g.
	// "snmpdReadOnly@romano.cs.wisc.edu#0".
	InstanceID string
	// Addr is the agent's UDP address.
	Addr string
	// AdminCommunity authenticates the generator to the agent.
	AdminCommunity string
}

// ParseTargets reads a rollout target list, one target per line:
//
//	instanceID addr [adminCommunity]
//
// Blank lines and #-comments are ignored. Targets omitting the admin
// community get defaultAdmin. This is the fleet-description format the
// nmslgen -targets flag consumes.
func ParseTargets(r io.Reader, defaultAdmin string) ([]Target, error) {
	var targets []Target
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("configgen: targets line %d: want \"instanceID addr [admin]\", got %q", line, text)
		}
		tgt := Target{InstanceID: fields[0], Addr: fields[1], AdminCommunity: defaultAdmin}
		if len(fields) == 3 {
			tgt.AdminCommunity = fields[2]
		}
		targets = append(targets, tgt)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return targets, nil
}
