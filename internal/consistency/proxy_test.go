package consistency

import (
	"strings"
	"testing"

	"nmsl/internal/extension"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

const proxyExt = `
extension proxyClause ::=
    clause proxies;
    decltype process;
    subkeywords via, frequency;
    semantics namelist;
end extension proxyClause.
`

// proxySpecSrc declares a bridge that cannot answer queries itself and a
// proxy that answers for it.
const proxySpecSrc = `
process bridgeProxy ::=
    supports mgmt.mib.interfaces;
    proxies bridge7.site.org via lanpoll
        frequency >= 30 seconds;
    exports mgmt.mib.interfaces to "machineRoom"
        access ReadOnly
        frequency >= 1 minutes;
end process bridgeProxy.

system "bridge7.site.org" ::=
    cpu z80;
    interface p0 net machine-room-lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.interfaces;
end system "bridge7.site.org".

system "proxy-host.site.org" ::=
    cpu sparc;
    interface ie0 net machine-room-lan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process bridgeProxy;
end system "proxy-host.site.org".

domain machineRoom ::=
    system proxy-host.site.org;
    system bridge7.site.org;
end domain machineRoom.
`

func buildWithProxy(t *testing.T, src string) *Model {
	t.Helper()
	return buildWithExt(t, proxyExt, src)
}

// buildWithExt compiles src with the NMSL/EXT declarations ext installed.
func buildWithExt(t *testing.T, ext, src string) *Model {
	t.Helper()
	exts, err := extension.ParseFile("ext", ext)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	extension.InstallAll(a.Tables(), exts)
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return BuildModel(spec)
}

func TestProxyModel(t *testing.T) {
	m := buildWithProxy(t, proxySpecSrc)
	if len(m.Proxies) != 1 {
		t.Fatalf("proxies: %+v", m.Proxies)
	}
	p := m.Proxies[0]
	if p.Element != "bridge7.site.org" || p.Protocol != "lanpoll" {
		t.Fatalf("proxy: %+v", p)
	}
	if p.Freq.Seconds != 30 {
		t.Fatalf("poll freq: %+v", p.Freq)
	}
	if !strings.Contains(p.String(), "via lanpoll") {
		t.Errorf("String: %s", p)
	}
}

func TestProxyConsistent(t *testing.T) {
	m := buildWithProxy(t, proxySpecSrc)
	rep := Check(m)
	if !rep.Consistent() {
		t.Fatalf("proxy spec inconsistent:\n%s", rep)
	}
}

func TestProxyUnknownElement(t *testing.T) {
	src := strings.Replace(proxySpecSrc, "proxies bridge7.site.org via lanpoll",
		"proxies ghost.site.org via lanpoll", 1)
	m := buildWithProxy(t, src)
	rep := Check(m)
	if len(rep.ByKind(KindProxyUnknownElement)) != 1 {
		t.Fatalf("violations: %s", rep)
	}
}

func TestProxyViewExceedsElement(t *testing.T) {
	// The bridge only supports interfaces, but the proxy claims to relay
	// the full MIB.
	src := strings.Replace(proxySpecSrc, "supports mgmt.mib.interfaces;\n    proxies",
		"supports mgmt.mib.interfaces, mgmt.mib.tcp;\n    proxies", 1)
	m := buildWithProxy(t, src)
	rep := Check(m)
	if len(rep.ByKind(KindProxyView)) != 1 {
		t.Fatalf("violations: %s", rep)
	}
}

func TestProxyFrequencyStaleness(t *testing.T) {
	// The proxy polls at most every 5 minutes but lets clients query
	// every 1 minute: stale answers.
	src := strings.Replace(proxySpecSrc, "frequency >= 30 seconds", "frequency >= 5 minutes", 1)
	m := buildWithProxy(t, src)
	rep := Check(m)
	if len(rep.ByKind(KindProxyFrequency)) != 1 {
		t.Fatalf("violations: %s", rep)
	}
}

func TestProxyLoadCounted(t *testing.T) {
	m := buildWithProxy(t, proxySpecSrc)
	load := EstimateLoad(m, LoadOptions{})
	// the proxy polls the bridge every 30s -> 1/30 q/s on the element
	got := load.SystemRate["bridge7.site.org"]
	if got < 0.033 || got > 0.034 {
		t.Fatalf("element poll rate %v", got)
	}
	if load.NetworkBits["machine-room-lan"] == 0 {
		t.Fatal("proxy traffic not attributed to the network")
	}
}

func TestProxyAbsentWithoutExtension(t *testing.T) {
	// Without the extension clause there are no proxies in the model (the
	// clause would be a semantic error anyway); an empty Ext map must not
	// break model building.
	m := buildModel(t, freqSpec)
	if len(m.Proxies) != 0 {
		t.Fatalf("proxies: %+v", m.Proxies)
	}
}
