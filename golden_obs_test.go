package pmemaccel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pmemaccel/internal/workload"
)

// TestObsOutputGolden pins the bytes of every observability export on
// one TCache cell with two NVM channels and every consumer switched on:
// the Chrome trace (event ring plus flight-recorder stage spans), the
// sampler's metrics CSV, and the JSON export (metrics snapshot and
// flight aggregate included). The digests were recorded before the
// observer refactor; a change to any of them means the refactor moved
// an event, a histogram or a checkpoint.
func TestObsOutputGolden(t *testing.T) {
	cfg := tinyConfig(workload.RBTree, TCache)
	cfg.NVMChannels = 2
	cfg.Obs = ObsConfig{Enabled: true, Metrics: true, TxSample: 1, SampleEvery: 500}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	var trace, csv bytes.Buffer
	if err := sys.Obs.Probe().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := sys.Obs.Probe().WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		data []byte
		want string
	}{
		{"chrome trace", trace.Bytes(), "3c2a1e4d8eafca7e1acb21de9ff71a226a3c3d7049008a984fcedfa7a3c0661d"},
		{"metrics csv", csv.Bytes(), "18ef7c6160b0078e1f08dfce5dec6bbd4d45c288428f5ada54c2693063279463"},
		{"json export", js, "870822499b640a78872736ae2a66a4e7c68b7432735c7a8f762cec058f68e527"},
	} {
		sum := sha256.Sum256(g.data)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", g.name, got, g.want, len(g.data))
		}
	}
}
