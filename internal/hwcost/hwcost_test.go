package hwcost

import (
	"strings"
	"testing"
)

// paperConfig reproduces the §4.4 numbers: 4 KB TC per core, 64 B
// entries, 4 cores, 64 MB LLC.
func paperConfig() Config {
	return Config{
		Cores: 4, TCBytes: 4 << 10,
		L1Bytes: 32 << 10, L2Bytes: 256 << 10, LLCBytes: 64 << 20,
	}
}

func TestPaperTxIDBits(t *testing.T) {
	c := paperConfig()
	// 4*1024/64 = 64 transactions -> 6 bits (§4.4).
	if c.Entries() != 64 {
		t.Fatalf("entries = %d, want 64", c.Entries())
	}
	if c.TxIDBits() != 6 {
		t.Fatalf("TxID bits = %d, want 6", c.TxIDBits())
	}
	if c.PointerBits() != 6 {
		t.Fatalf("pointer bits = %d, want 6", c.PointerBits())
	}
}

func TestPaperTotals(t *testing.T) {
	tot := paperConfig().Summarize()
	// 7 bits per TC line (6-bit TxID + state), 1 bit per existing line,
	// 16 KB of TC across 4 cores — tiny against the 64 MB LLC.
	if tot.PerTCLineBits != 7 {
		t.Fatalf("per-TC-line bits = %d, want 7", tot.PerTCLineBits)
	}
	if tot.PerHierarchyLineBits != 1 {
		t.Fatalf("per-hierarchy-line bits = %d, want 1", tot.PerHierarchyLineBits)
	}
	if tot.TCTotalBytes != 16<<10 {
		t.Fatalf("TC total = %d bytes, want 16 KB", tot.TCTotalBytes)
	}
	if tot.TCvsLLCPercent > 0.03 || tot.TCvsLLCPercent <= 0 {
		t.Fatalf("TC vs LLC = %v%%, want ~0.024%%", tot.TCvsLLCPercent)
	}
}

func TestHierarchyLines(t *testing.T) {
	c := paperConfig()
	// (32K+256K)*4/64 + 64M/64 = 18432 + 1048576.
	want := (32<<10+256<<10)*4/64 + (64<<20)/64
	if got := c.HierarchyLines(); got != want {
		t.Fatalf("hierarchy lines = %d, want %d", got, want)
	}
}

func TestRowsCoverTable1Components(t *testing.T) {
	rows := paperConfig().Rows()
	wantComponents := []string{
		"CPU TxID/Mode register", "CPU Next TxID register", "Cache P/V flag",
		"TxID in TC data array", "State in TC data array", "head/tail pointer",
		"TC data array",
	}
	if len(rows) != len(wantComponents) {
		t.Fatalf("rows = %d, want %d", len(rows), len(wantComponents))
	}
	for i, w := range wantComponents {
		if rows[i].Component != w {
			t.Errorf("row %d = %q, want %q", i, rows[i].Component, w)
		}
	}
}

func TestRenderIncludesHeadlineNumbers(t *testing.T) {
	out := paperConfig().Render()
	for _, want := range []string{"Table 1", "6 bits", "1 bit/line", "4 KB/core", "16 KB", "flip-flops", "STT-RAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScalingTCChangesTxIDBits(t *testing.T) {
	c := paperConfig()
	c.TCBytes = 32 << 10 // 512 entries -> 9 bits
	if c.TxIDBits() != 9 {
		t.Fatalf("TxID bits = %d, want 9", c.TxIDBits())
	}
	c.TCBytes = 64 // 1 entry
	if c.TxIDBits() != 1 {
		t.Fatalf("degenerate TxID bits = %d, want 1", c.TxIDBits())
	}
}
