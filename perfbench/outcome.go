package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
)

// This file holds the benchmark's correctness side: the canonical form
// a campaign's outputs are compared in, and the committed expected
// outputs (expected/) they are compared against.

//go:embed expected
var expectedFS embed.FS

// classTally is one fault class's (total, detected) pair.
type classTally struct {
	Class    string `json:"class"`
	Total    int64  `json:"total"`
	Detected int64  `json:"detected"`
}

// stageTally is one executed stage of a session, in execution order.
type stageTally struct {
	Runner    string       `json:"runner"`
	Entered   int64        `json:"entered"`
	Detected  int64        `json:"detected"`
	Survivors int64        `json:"survivors"`
	ByClass   []classTally `json:"by_class"`
}

// tallies is the canonical outcome of a coverage session: per-stage and
// cumulative Detected/Total/ByClass counts.  A Session and a merged
// checkpoint.State of the same campaign produce equal tallies.
type tallies struct {
	Stages     []stageTally `json:"stages"`
	Total      int64        `json:"total"`
	Detected   int64        `json:"detected"`
	Cumulative []classTally `json:"cumulative_by_class"`
}

func (t tallies) canon() []byte {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and integers always marshal
	}
	return append(b, '\n')
}

func sortedTallies(m map[fault.Class]coverage.ClassStat) []classTally {
	out := make([]classTally, 0, len(m))
	for c, s := range m {
		out = append(out, classTally{Class: c.String(), Total: int64(s.Total), Detected: int64(s.Detected)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

func checkpointTallies(ts []checkpoint.ClassTally) []classTally {
	out := make([]classTally, 0, len(ts))
	for _, t := range ts {
		out = append(out, classTally{Class: fault.Class(t.Class).String(), Total: t.Total, Detected: t.Detected})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// sessionTallies converts an executed session.  The problem string is
// non-empty when the session must count as failed whatever its counts:
// it was interrupted or a stage flagged a fault-free memory.
func sessionTallies(s *coverage.Session) (tallies, string) {
	var t tallies
	problem := ""
	if s.Interrupted {
		problem = "interrupted"
	}
	for _, st := range s.Stages {
		res := s.Results[st.RunnerIndex]
		if res.FalsePositive {
			problem = "false positive in " + res.Runner
		}
		if res.Interrupted {
			problem = "interrupted in " + res.Runner
		}
		t.Stages = append(t.Stages, stageTally{
			Runner:    st.Runner,
			Entered:   int64(st.Entered),
			Detected:  int64(st.Detected),
			Survivors: int64(st.Survivors),
			ByClass:   sortedTallies(res.ByClass),
		})
	}
	t.Total = int64(s.Cumulative.Total)
	t.Detected = int64(s.Cumulative.Detected)
	t.Cumulative = sortedTallies(s.Cumulative.ByClass)
	return t, problem
}

// stateTallies converts a complete (merged) checkpoint state.
func stateTallies(st *checkpoint.State) tallies {
	var t tallies
	for _, rec := range st.Done {
		t.Stages = append(t.Stages, stageTally{
			Runner:    rec.Runner,
			Entered:   rec.Entered,
			Detected:  rec.Detected,
			Survivors: rec.Survivors,
			ByClass:   checkpointTallies(rec.ByClass),
		})
	}
	t.Cumulative = checkpointTallies(st.Universe)
	for _, c := range t.Cumulative {
		t.Total += c.Total
		t.Detected += c.Detected
	}
	return t
}

// expectedName is the file under expected/ holding a workload's
// expected outputs: seed-free workloads have one file, seeded ones one
// per committed seed.
func expectedName(w *workload, seed int64) string {
	ext := ".json"
	if w.textOutput {
		ext = ".txt"
	}
	if !w.seeded {
		return w.expectedAs + ext
	}
	return fmt.Sprintf("%s.seed-%d%s", w.expectedAs, seed, ext)
}

// loadExpected returns the committed expected outputs for the seed, or
// nil when none were committed for it.
func loadExpected(w *workload, seed int64) ([]byte, error) {
	b, err := expectedFS.ReadFile("expected/" + expectedName(w, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return b, err
}

// writeExpected stores freshly generated expected outputs in the
// source tree (the --regen mode); rebuild to embed them.
func writeExpected(dir string, w *workload, seed int64, b []byte) (string, error) {
	path := filepath.Join(dir, expectedName(w, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
