package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/trace"
)

// TestRunReportsPanickingPoint injects a panicking point into a real
// series: run must return the panic, naming the point's index, and print
// every other row in order and no row for the failed point.
func TestRunReportsPanickingPoint(t *testing.T) {
	const bad = 2
	args := []string{"-series", "messages-vs-l", "-workers", "2"}
	var full bytes.Buffer
	if err := run(args, &full, allSeries); err != nil {
		t.Fatal(err)
	}
	broken := func(seed int64) []series {
		s := messagesVsL(seed)
		s.points[bad].measure = func() (string, error) { panic("boom") }
		return []series{s}
	}
	var out bytes.Buffer
	err := run(args, &out, broken)
	var pe *exec.PanicError
	if !errors.As(err, &pe) || pe.Index != bad || pe.Value != "boom" {
		t.Fatalf("run = %v, want the panic at item %d", err, bad)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	want := strings.Join(slices.Delete(lines, 2+bad, 3+bad), "") // after title and header
	if out.String() != want {
		t.Fatalf("output\n%s\nwant\n%s", out.String(), want)
	}
}

// TestRowIsWorstOfItsScenarios: every printed row reports the latest
// decision round over its point's adversary seeds seed … seed+7, each
// scenario run on its own, and the message count of the first run that
// decided that late.
func TestRowIsWorstOfItsScenarios(t *testing.T) {
	const seed = 5
	for _, s := range allSeries(seed) {
		var out bytes.Buffer
		if err := run([]string{"-series", s.name, "-seed", fmt.Sprint(seed)}, &out, allSeries); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")[2:] // after title and header
		if len(rows) != len(s.points) {
			t.Fatalf("%s: %d rows for %d points", s.name, len(rows), len(s.points))
		}
		for i, pt := range s.points {
			if len(pt.runs) != advSeeds {
				t.Fatalf("%s row %d: %d scenarios, want %d", s.name, i, len(pt.runs), advSeeds)
			}
			latency, messages := 0, 0
			for k, sc := range pt.runs {
				if sc.AdvSeed != seed+int64(k) {
					t.Fatalf("%s row %d: scenario %d has adversary seed %d, want %d", s.name, i, k, sc.AdvSeed, seed+k)
				}
				cfg, err := sc.Config()
				if err != nil {
					t.Fatal(err)
				}
				res, err := engine.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r := trace.LatestDecisionRound(res); r > latency {
					latency, messages = r, res.Stats.MessagesDelivered
				}
			}
			want := fmt.Sprintf(" %10d %12d", latency, messages)
			if !strings.Contains(s.header, "messages") {
				want = fmt.Sprintf(" %10d", latency)
			}
			if !strings.HasSuffix(rows[i], want) {
				t.Errorf("%s row %d = %q, want it to end %q", s.name, i, rows[i], want)
			}
		}
	}
}
