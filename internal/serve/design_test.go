package serve

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestDesignMetricsTable keeps DESIGN.md's "Metrics" table equal to
// what the two daemons declare: it is rebuilt from the # HELP and
// # TYPE lines of a fresh server's and a fresh router's /metrics.
//
//	go test ./internal/serve -run TestDesignMetricsTable -update
func TestDesignMetricsTable(t *testing.T) {
	router, err := cluster.New(cluster.Options{
		Workers:   []cluster.Worker{{ID: "w1", URL: "http://127.0.0.1:1"}},
		RequestID: func(body []byte) (string, error) { return ComputeRequestID(body, Options{}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	exposition := New(Options{}).Metrics().Render(0, 0) + router.Metrics().Render(0, 0, 0)

	help := regexp.MustCompile(`(?m)^# HELP (\S+) (.*)\n# TYPE \S+ (\S+)$`)
	var table strings.Builder
	table.WriteString("| Series | Type | Help |\n|---|---|---|\n")
	for _, m := range help.FindAllStringSubmatch(exposition, -1) {
		table.WriteString("| `" + m[1] + "` | " + m[3] + " | " + m[2] + " |\n")
	}

	const path, begin, end = "../../DESIGN.md", "<!-- metrics-table:begin -->\n", "<!-- metrics-table:end -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s: metrics-table markers not found", path)
	}
	i += len(begin)
	if doc[i:j] == table.String() {
		return
	}
	if !*update {
		t.Fatalf("%s: the Metrics table is stale (regenerate with -update); want:\n%s", path, table.String())
	}
	if err := os.WriteFile(path, []byte(doc[:i]+table.String()+doc[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
