package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainArg, as the first argument, makes the test binary run main with the
// remaining arguments instead of the tests, so each golden case exercises
// the real flag parsing and printing in a fresh process.
const runMainArg = "experiment-golden-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCases are the flag sets whose stdout is pinned byte for byte under
// testdata/<name>.golden: every mode at its defaults, plus one set per
// ablation that moves each knob a flag feeds. Regenerate a golden only for
// an intended output change, with
//
//	go run ./cmd/experiment <args> > cmd/experiment/testdata/<name>.golden
var goldenCases = []struct {
	name string
	args []string
}{
	{"all", []string{"-all"}},
	{"compare", []string{"-compare"}},
	{"batch", []string{"-batch", "-totals"}},
	{"batch-forecast", []string{"-batch-forecast", "-totals"}},
	{"forecast-ablation", []string{"-forecast-ablation"}},
	{"deploy-ablation", []string{"-deploy-ablation"}},
	{"warmstart-ablation", []string{"-warmstart-ablation"}},
	{"replan-ablation", []string{"-replan-ablation"}},
	{"backfill-ablation", []string{"-backfill-ablation"}},
	{"failure-ablation", []string{"-failure-ablation"}},
	{"workflow-ablation", []string{"-workflow-ablation"}},
	{"federation-ablation", []string{"-federation-ablation"}},
	{"data-ablation", []string{"-data-ablation"}},
	{"sweep", []string{"-sweep"}},
	{"data-ablation-knobs", []string{"-data-ablation", "-data-size-mb", "1500", "-data-sets", "4", "-seed", "3"}},
	{"workflow-ablation-knobs", []string{"-workflow-ablation", "-workflow-campaigns", "3", "-workflow-parallel", "2"}},
	{"federation-ablation-knobs", []string{"-federation-ablation", "-federation-mas", "3", "-federation-rate", "80"}},
	{"replan-ablation-knobs", []string{"-replan-ablation", "-replan-interval", "10800", "-rounds", "3"}},
	{"backfill-ablation-knobs", []string{"-backfill-ablation", "-backfill-nodes", "6", "-rounds", "3"}},
	{"failure-ablation-knobs", []string{"-failure-ablation", "-failure-detect", "60"}},
}

// TestGoldenOutput runs the command once per flag set and diffs its stdout
// against the committed golden, so a refactor of the simulator cannot move
// a printed number unnoticed.
func TestGoldenOutput(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], append([]string{runMainArg}, c.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("experiment %s: %v\n%s", strings.Join(c.args, " "), err, stderr.String())
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("experiment %s: line %d differs from testdata/%s.golden\n got: %q\nwant: %q",
						strings.Join(c.args, " "), i+1, c.name, g, w)
				}
			}
		})
	}
}
