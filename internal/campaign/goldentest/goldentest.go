// Package goldentest holds the pinned outputs of the small specs: one
// row per scenario in small.golden, beside this file, for the campaign
// DefaultSpec at scale small, 2 traces, stride 12, seed 2015. Every test
// that holds a run to a pinned hash or count reads it here, so a change
// meant to move a pin edits that one file: TestDeterminismGrid writes
// the table it observed to a temp file on a mismatch, and that file is
// the new small.golden.
//
// It imports only the standard library, so package campaign's own tests
// can use it too. Like net/http/httptest it is imported only from
// _test.go files.
package goldentest

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
)

//go:embed small.golden
var table string

// Table is small.golden's text.
func Table() string { return table }

// Row is one scenario's pinned outputs.
type Row struct {
	Scenario string
	// Dataset is the SHA-256 of the merged dataset in canonical JSON
	// lines; a spec with another stride files the same bytes.
	Dataset string
	// RowsLazy and RowsEvents are traceroute.HashRows over the sweep's
	// rows under the lazy and the event-per-boundary cross-traffic
	// drive; they differ where two paths complete in the same
	// nanosecond.
	RowsLazy, RowsEvents string
	// Events is the executed event count less the phantom boundaries
	// (Result.Events − PhantomEvents); Boundaries is every cross-traffic
	// serialization boundary (PhantomEvents + ReplayedBoundaries).
	Events, Boundaries uint64
}

// preamble heads the table; Format writes it and Rows skips it.
const preamble = `# Pinned outputs of the small specs (scale small, 2 traces, stride 12,
# seed 2015), one row per scenario. To move a pin, copy the table
# TestDeterminismGrid writes on a mismatch over this file, and say why.
`

var header = []string{"scenario", "dataset", "rows-lazy", "rows-events", "events", "boundaries"}

// Rows returns the table's rows in file order.
func Rows() []Row {
	var rows []Row
	for i, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") || f[0] == header[0] {
			continue
		}
		if len(f) != len(header) {
			panic(fmt.Sprintf("goldentest: small.golden:%d: %d columns, want %d", i+1, len(f), len(header)))
		}
		events, err1 := strconv.ParseUint(f[4], 10, 64)
		boundaries, err2 := strconv.ParseUint(f[5], 10, 64)
		if err1 != nil || err2 != nil {
			panic(fmt.Sprintf("goldentest: small.golden:%d: counts %q %q", i+1, f[4], f[5]))
		}
		rows = append(rows, Row{f[0], f[1], f[2], f[3], events, boundaries})
	}
	return rows
}

// Small returns scenario's row, failing t when the table has none.
func Small(t testing.TB, scenario string) Row {
	t.Helper()
	for _, r := range Rows() {
		if r.Scenario == scenario {
			return r
		}
	}
	t.Fatalf("small.golden has no row for scenario %q", scenario)
	return Row{}
}

// Format writes rows as small.golden's text: Format(Rows()) == Table().
func Format(rows []Row) string {
	var b strings.Builder
	b.WriteString(preamble)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\n", r.Scenario, r.Dataset, r.RowsLazy, r.RowsEvents, r.Events, r.Boundaries)
	}
	tw.Flush()
	return b.String()
}
