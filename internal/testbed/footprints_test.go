package testbed

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/nf"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// update regenerates the golden footprints:
//
//	go test ./internal/testbed -run TestFootprintsBitIdentical -update
//
// The file pins what every model, golden trace and bench verifier in the
// repo is a function of; regenerate it only in a PR whose purpose is to
// change footprints.
var update = flag.Bool("update", false, "rewrite testdata/footprints.golden")

const footprintsGolden = "testdata/footprints.golden"

// footprintProfiles spans the attribute ranges the serving path accepts:
// the paper's default, both ends of each attribute, a flow count just
// past a table-growth boundary, an exact power of two, a fractional
// MTBR, a single flow and a jumbo frame.
var footprintProfiles = []traffic.Profile{
	traffic.Default,
	{Flows: 1000, PktSize: 64, MTBR: 0},
	{Flows: 123457, PktSize: 777, MTBR: 333.3},
	{Flows: 400001, PktSize: 1500, MTBR: 1100},
	{Flows: 5000, PktSize: 70, MTBR: 900},
	{Flows: 262144, PktSize: 256, MTBR: 10},
	{Flows: 1, PktSize: 64, MTBR: 1100},
	{Flows: 16000, PktSize: 64, MTBR: 1100},
	{Flows: 50000, PktSize: 9000, MTBR: 600},
}

func hex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// footprintKey is the four-field prefix that identifies a golden row.
func footprintKey(name string, prof traffic.Profile) string {
	return fmt.Sprintf("%s flows=%d pktsize=%d mtbr=%s", name, prof.Flows, prof.PktSize, hex(prof.MTBR))
}

// footprintRow renders every Workload field, floats as their IEEE-754
// bit patterns so a one-ulp drift in accumulation order shows.
func footprintRow(name string, prof traffic.Profile, w *nicsim.Workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s name=%s pattern=%d cores=%d cpu=%s memrefs=%s wss=%s mlp=%s pktbytes=%s offered=%s",
		footprintKey(name, prof), w.Name, int(w.Pattern), w.Cores,
		hex(w.CPUSecPerPkt), hex(w.MemRefsPerPkt), hex(w.WSSBytes), hex(w.MemMLP), hex(w.PktBytes), hex(w.OfferedRate))
	rendered := 0
	for _, k := range nicsim.AccelKinds() {
		if u, ok := w.Accel[k]; ok {
			rendered++
			fmt.Fprintf(&b, " %s=[reqs=%s bytes=%s matches=%s queues=%d]",
				k, hex(u.ReqsPerPkt), hex(u.BytesPerReq), hex(u.MatchesPerReq), u.Queues)
		}
	}
	if rendered != len(w.Accel) {
		b.WriteString(" unknown-accel")
	}
	return b.String()
}

func measureFootprint(t testing.TB, name string, prof traffic.Profile) string {
	t.Helper()
	w, err := New(nicsim.BlueField2(), 1).Workload(name, prof)
	if err != nil {
		t.Fatalf("%s %v: %v", name, prof, err)
	}
	return footprintRow(name, prof, w)
}

func goldenFootprints(t testing.TB) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(footprintsGolden)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		rows[strings.Join(f[:4], " ")] = line
	}
	return rows
}

// TestFootprintsBitIdentical pins every field of every catalog NF's
// measured footprint, bit for bit, across the profile set above.
func TestFootprintsBitIdentical(t *testing.T) {
	if *update {
		var out bytes.Buffer
		for _, name := range nf.Names() {
			for _, prof := range footprintProfiles {
				out.WriteString(measureFootprint(t, name, prof))
				out.WriteByte('\n')
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(footprintsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := goldenFootprints(t)
	if want := len(nf.Names()) * len(footprintProfiles); len(golden) != want {
		t.Fatalf("golden file holds %d rows, want %d", len(golden), want)
	}
	for _, name := range nf.Names() {
		for _, prof := range footprintProfiles {
			want, ok := golden[footprintKey(name, prof)]
			if !ok {
				t.Fatalf("no golden row for %s %v", name, prof)
			}
			if got := measureFootprint(t, name, prof); got != want {
				t.Errorf("%s %v footprint moved:\n got %s\nwant %s", name, prof, got, want)
			}
		}
	}
}

// TestIPRouterSharedFIBConcurrent: every IPRouter forwards by one shared
// FIB, so two testbeds measuring it at once must neither race on it (run
// under -race) nor read anything but the golden footprint.
func TestIPRouterSharedFIBConcurrent(t *testing.T) {
	prof := traffic.Default
	want, ok := goldenFootprints(t)[footprintKey("IPRouter", prof)]
	if !ok {
		t.Fatalf("no golden row for IPRouter %v", prof)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := New(nicsim.BlueField2(), 1).Workload("IPRouter", prof)
			if err != nil {
				t.Error(err)
				return
			}
			if got := footprintRow("IPRouter", prof, w); got != want {
				t.Errorf("IPRouter footprint moved:\n got %s\nwant %s", got, want)
			}
		}()
	}
	wg.Wait()
}
