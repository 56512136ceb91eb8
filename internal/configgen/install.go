package configgen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nmsl/internal/snmp"
)

// InstallFiles writes one configuration file per agent instance into dir,
// in the chosen format ("BartsSnmpd" or "nvp"). This is section 5's file
// transport. It returns the written paths, sorted.
func InstallFiles(dir, format string, configs map[string]*snmp.Config) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for id, cfg := range configs {
		name := sanitizeFilename(id)
		switch format {
		case TagBartsSnmpd:
			name += ".conf"
		case TagNVP:
			name += ".json"
		default:
			return nil, fmt.Errorf("configgen: unknown format %q", format)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		var werr error
		switch format {
		case TagBartsSnmpd:
			werr = WriteSnmpdConf(f, cfg)
		case TagNVP:
			werr = WriteNVP(f, cfg)
		}
		cerr := f.Close()
		if werr != nil {
			return nil, werr
		}
		if cerr != nil {
			return nil, cerr
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths, nil
}

func sanitizeFilename(id string) string {
	repl := strings.NewReplacer("@", "_at_", "#", "_", "/", "_", ":", "_")
	return repl.Replace(id)
}

// InstallLive ships the configuration to a running agent over the
// management protocol (section 5's preferred transport: "initiating a
// connection to a network management process ... authenticating the
// Configuration Generator as a trusted process, and sending, via the
// normal network management protocol, the configuration information").
func InstallLive(addr, adminCommunity string, cfg *snmp.Config) error {
	client, err := snmp.Dial(addr, adminCommunity)
	if err != nil {
		return err
	}
	defer client.Close()
	return client.InstallConfig(cfg)
}
