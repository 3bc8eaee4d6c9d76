package cluster

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
)

// seriesDoc is one series as documented or as exposed: kind and help.
type seriesDoc struct{ kind, help string }

// exposedSeries reads the # HELP and # TYPE lines of a Prometheus
// exposition, keyed by exposed (sanitized) name.
func exposedSeries(text string) map[string]seriesDoc {
	out := make(map[string]seriesDoc)
	for _, line := range strings.Split(text, "\n") {
		for _, p := range []string{"# HELP ", "# TYPE "} {
			rest, ok := strings.CutPrefix(line, p)
			if !ok {
				continue
			}
			name, val, _ := strings.Cut(rest, " ")
			d := out[name]
			if p == "# HELP " {
				d.help = val
			} else {
				d.kind = val
			}
			out[name] = d
		}
	}
	return out
}

// documentedSeries reads the series table of DESIGN.md §7.3: rows of
// | `name` | kind | help |, keyed by the dotted name.
func documentedSeries(t *testing.T) map[string]seriesDoc {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### 7.3 Daemon and client series")
	if !ok {
		t.Fatal("DESIGN.md has no §7.3 series table")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	out := make(map[string]seriesDoc)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			t.Fatalf("malformed series row: %q", line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := out[name]; dup {
			t.Errorf("series %s documented twice", name)
		}
		out[name] = seriesDoc{kind: strings.TrimSpace(cells[2]), help: strings.TrimSpace(cells[3])}
	}
	return out
}

// TestSeriesTableMatchesDesign keeps DESIGN.md's series table and the code
// in step: every series a daemon (serve + cluster) or a client
// (client.Fleet + exp.Runner) registers has a row with its kind and help
// text, and every row names a registered series. The per-member counter is
// documented once with a {node} placeholder.
func TestSeriesTableMatchesDesign(t *testing.T) {
	// A node with a store registers the optional store gauge too.
	node, err := NewNode(NodeConfig{Serve: serve.Config{
		Workers:  1,
		StoreDir: t.TempDir(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	reg := obs.NewRegistry()
	fleet, err := client.NewFleet([]string{"127.0.0.1:1"}, client.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fleet.Instrument(reg)
	exp.NewRunner(exp.Options{Metrics: reg})
	var cb bytes.Buffer
	if err := reg.WritePrometheus(&cb); err != nil {
		t.Fatal(err)
	}
	exposed := exposedSeries(rec.Body.String() + cb.String())
	registered := make(map[string]seriesDoc)
	for _, r := range []*obs.Registry{node.Server().Registry(), reg} {
		for _, name := range r.Names() {
			registered[name] = exposed[obs.PromName(name)]
		}
	}

	self := node.Coordinator().Members().Self
	documented := make(map[string]seriesDoc)
	for name, d := range documentedSeries(t) {
		if strings.Contains(name, "{node}") {
			name = strings.ReplaceAll(name, "{node}", nodeMetricName(self))
			d.help = strings.ReplaceAll(d.help, "{node}", self)
		}
		documented[name] = d
	}
	for name, got := range registered {
		want, ok := documented[name]
		switch {
		case !ok:
			t.Errorf("| `%s` | %s | %s | is registered but missing from DESIGN.md §7.3", name, got.kind, got.help)
		case want != got:
			t.Errorf("series %s: DESIGN.md says %s %q, code registers %s %q", name, want.kind, want.help, got.kind, got.help)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("DESIGN.md §7.3 lists %s, which nothing registers", name)
		}
	}
}
