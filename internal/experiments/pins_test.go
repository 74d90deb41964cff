package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the report pins from the current drivers. Only do this
// deliberately: a pin moving means a paper artifact changed.
var updatePins = flag.Bool("update", false, "rewrite testdata/report_pins.tsv from the current drivers")

const reportPinsPath = "testdata/report_pins.tsv"

// readReportPins loads the pins file as name -> SHA-256 of Render().
func readReportPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(reportPinsPath)
	if err != nil {
		if *updatePins && os.IsNotExist(err) {
			return map[string]string{}
		}
		t.Fatalf("%v (run with -update to generate)", err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 2 {
			t.Fatalf("bad pin line %q", line)
		}
		pins[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// pinReport checks the SHA-256 of a registry report's rendering, produced
// on sharedLab with the registry's own arguments, against its pin. Under
// -update it rewrites that pin instead, keeping the others.
func pinReport(t *testing.T, name, rendered string) {
	t.Helper()
	sum := sha256.Sum256([]byte(rendered))
	got := hex.EncodeToString(sum[:])
	pins := readReportPins(t)
	if !*updatePins {
		if want, ok := pins[name]; !ok {
			t.Errorf("%s: no report pin (run with -update)", name)
		} else if got != want {
			t.Errorf("%s: report digest %s, want %s; rendered:\n%s", name, got, want, rendered)
		}
		return
	}
	pins[name] = got
	var b strings.Builder
	b.WriteString("# report\tsha256(Render()) on QuickConfig with the registry's arguments\n")
	for _, n := range Names() {
		if d, ok := pins[n]; ok {
			fmt.Fprintf(&b, "%s\t%s\n", n, d)
		}
	}
	if err := os.MkdirAll(filepath.Dir(reportPinsPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reportPinsPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pinRegistryRun pins a report whose test drives it with other arguments
// than the registry's: it runs the registry's own entry once more.
func pinRegistryRun(t *testing.T, l *Lab, name string) {
	t.Helper()
	out, err := RunExperiment(context.Background(), l, name, Params{})
	if err != nil {
		t.Fatal(err)
	}
	pinReport(t, name, out)
}

// TestReportPinsCoverRegistry checks that the pins file names exactly the
// registry's reports, so a new report cannot go unpinned.
func TestReportPinsCoverRegistry(t *testing.T) {
	if *updatePins {
		t.Skip("the per-report tests are rewriting the pins")
	}
	pins := readReportPins(t)
	for _, n := range Names() {
		if _, ok := pins[n]; !ok {
			t.Errorf("%s: registry report has no pin (run with -update)", n)
		}
		delete(pins, n)
	}
	for n := range pins {
		t.Errorf("%s: pinned but not in the registry", n)
	}
}
