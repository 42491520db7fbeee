package analysis

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/traceroute"
)

// parseCSV reads back emitted CSV for verification.
func parseCSV(t *testing.T, data string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not re-parse: %v", err)
	}
	return rows
}

func TestWriteFigure2CSV(t *testing.T) {
	f := ComputeFigure2a(synthDataset())
	var buf bytes.Buffer
	if err := WriteFigure2CSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 1+len(f.Points) {
		t.Fatalf("rows = %d, want header + %d", len(rows), len(f.Points))
	}
	if rows[0][0] != "vantage" || rows[0][3] != "pct" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][0] != "Perkins home" {
		t.Errorf("first row = %v", rows[1])
	}
}

func TestWriteFigure3CSV(t *testing.T) {
	f := ComputeFigure3a(synthDataset())
	var buf bytes.Buffer
	if err := WriteFigure3CSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	// 2 vantages × 10 servers + header.
	if len(rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	// Vantages sorted: EC2 Tokyo before Perkins home.
	if rows[1][0] != "EC2 Tokyo" {
		t.Errorf("first data row vantage = %q", rows[1][0])
	}
	// The firewalled server (index 0) should show fraction 1.0000.
	found := false
	for _, r := range rows[1:] {
		if r[2] == "1.0000" {
			found = true
		}
	}
	if !found {
		t.Error("no 100% differential row")
	}
}

func TestWriteFigure5And6CSV(t *testing.T) {
	f5 := ComputeFigure5(synthDataset())
	var buf bytes.Buffer
	if err := WriteFigure5CSV(&buf, f5); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.String()); len(rows) != 1+len(f5.Points) {
		t.Errorf("figure5 rows = %d", len(rows))
	}

	f6 := ComputeFigure6(f5)
	buf.Reset()
	if err := WriteFigure6CSV(&buf, f6); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 1+len(HistoricalECN)+1 {
		t.Errorf("figure6 rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last[2] != "measured" {
		t.Errorf("last row = %v, want measured point", last)
	}
}

func TestWriteTable2CSV(t *testing.T) {
	t2 := ComputeTable2(synthDataset())
	var buf bytes.Buffer
	if err := WriteTable2CSV(&buf, t2); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	// header + 2 locations + phi row.
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3][0] != "phi" {
		t.Errorf("phi row = %v", rows[3])
	}
}

func TestWriteFigure4CSV(t *testing.T) {
	table := synthASNTable()
	target := hop(1, 200)
	obs := synthPath(0, target, []packet.Addr{hop(0, 1), hop(1, 1)}, 1)
	f4 := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	var buf bytes.Buffer
	if err := WriteFigure4CSV(&buf, f4); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) < 10 {
		t.Errorf("figure4 rows = %d", len(rows))
	}
	byKey := map[string]string{}
	for _, r := range rows[1:] {
		byKey[r[0]] = r[1]
	}
	if byKey["strip_location_routers"] != "1" {
		t.Errorf("strip rows = %v", byKey)
	}
}
