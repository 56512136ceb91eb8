package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// muxRun exercises the mixed-transport fleet path end to end: half the
// generated internet's agents are hosted on the in-memory network, the
// other half serve real UDP sockets on loopback, and one rollout
// converges both halves through a single shared client socket
// (snmp.ClientMux.DialAny routes mem:// in-process and everything else
// over the mux). This is the deployment shape §1 implies — most of the
// fleet simulated at scale, a rack of real agents mixed in — and the
// mode CI runs to keep the mux path honest.
func muxRun(domains, systems int, seed int64, workers int, stdout, stderr io.Writer) int {
	m, err := netsim.Model(netsim.Params{
		Domains: domains, SystemsPerDomain: systems, NestingDepth: 1, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(stderr, "nmslsim: %v\n", err)
		return 1
	}
	const admin = "mux-admin"

	mem, err := snmp.NewMemNet(fmt.Sprintf("mux-%d", seed), 1)
	if err != nil {
		fmt.Fprintf(stderr, "nmslsim: %v\n", err)
		return 1
	}
	defer mem.Close()

	var ids []string
	for _, in := range m.Instances {
		if in.Proc.IsAgent() {
			ids = append(ids, in.ID)
		}
	}
	sort.Strings(ids)

	var targets []configgen.Target
	agents := make(map[string]*snmp.Agent, len(ids))
	memN, udpN := 0, 0
	for i, id := range ids {
		store := snmp.NewStore()
		snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
		agent := snmp.NewAgent(store, &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: admin,
		})
		var addr string
		if i%2 == 0 {
			if _, err := mem.AddHost(id, agent); err != nil {
				fmt.Fprintf(stderr, "nmslsim: %v\n", err)
				return 1
			}
			addr = mem.Addr(id)
			memN++
		} else {
			ua, err := agent.ListenAndServe("127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(stderr, "nmslsim: %v\n", err)
				return 1
			}
			defer agent.Close()
			addr = ua.String()
			udpN++
		}
		agents[id] = agent
		targets = append(targets, configgen.Target{InstanceID: id, Addr: addr, AdminCommunity: admin})
	}

	mux, err := snmp.NewClientMux()
	if err != nil {
		fmt.Fprintf(stderr, "nmslsim: %v\n", err)
		return 1
	}
	defer mux.Close()

	t0 := time.Now()
	rep, err := configgen.DistributeContext(context.Background(), m, targets,
		configgen.WithWorkers(workers),
		configgen.WithDialer(mux.DialAny),
		configgen.WithMetrics(obs.Disabled),
	)
	if err != nil {
		fmt.Fprintf(stderr, "nmslsim: %v\n", err)
		return 1
	}

	drifted := 0
	for i, want := range configgen.DesiredState(m, targets) {
		if agents[targets[i].InstanceID].ConfigSnapshot().Digest() != want.Digest {
			drifted++
		}
	}
	fmt.Fprintf(stdout, "mux rollout: %d targets (%d mem://, %d udp via one shared socket): %d installed, %d failed, %d drifted in %s\n",
		len(targets), memN, udpN, rep.Installed, rep.Failed+rep.Skipped+rep.Canceled, drifted,
		time.Since(t0).Round(time.Millisecond))
	if !rep.OK() || drifted > 0 {
		fmt.Fprintf(stderr, "nmslsim: mixed fleet did not converge (%s)\n", rep.Summary())
		return 1
	}
	return 0
}
