package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// TestDumpILPGolden pins the text of the ILP dump (cinderella -lp) for dhry
// and explosion64 byte for byte. The solve path lowers annotation rows
// without their diagnostic names; the dump formats those names itself, and
// this test proves the output did not move. Regenerate after an intended
// format change with
//
//	CINDERELLA_UPDATE_GOLDEN=1 go test -run TestDumpILPGolden ./internal/bench/
func TestDumpILPGolden(t *testing.T) {
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	dhry, ok := ByName("dhry")
	if !ok {
		t.Fatal("unknown benchmark dhry")
	}
	built, err := dhry.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	exProg, exAnnots, err := explosionProgram(6)
	if err != nil {
		t.Fatal(err)
	}
	exAn, err := ipet.New(exProg, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	exFile, err := constraint.Parse(exAnnots)
	if err != nil {
		t.Fatal(err)
	}
	if err := exAn.Apply(exFile); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		an   *ipet.Analyzer
	}{
		{"dhry", built.An},
		{"explosion64", exAn},
	} {
		var b strings.Builder
		if err := c.an.DumpILP(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "dump_"+c.name+".golden")
		if os.Getenv("CINDERELLA_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: ILP dump differs from %s (%d vs %d bytes)", c.name, path, len(got), len(want))
		}
	}
}
