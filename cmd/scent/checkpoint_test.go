package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"followscent/internal/zmap"
)

// Wiring tests for the -checkpoint/-resume flags and the exit-code
// contract. The resume-equivalence guarantees themselves are proven in
// internal/zmap (TestCheckpointResumeEquivalence); these pin the CLI
// plumbing: flag restriction, config wiring, and finish()'s mapping of
// command outcomes to exit codes and checkpoint files.

func TestCheckpointFlagsRestrictedToSinglePassScans(t *testing.T) {
	for _, cmd := range []string{"snowball", "discover", "campaign", "seed", "bogus"} {
		env, _ := buildEnv(7, "test", "")
		if _, err := applyCheckpointFlags(env, cmd, "f", ""); err == nil {
			t.Errorf("-checkpoint accepted for %q", cmd)
		}
		if _, err := applyCheckpointFlags(env, cmd, "", "f"); err == nil {
			t.Errorf("-resume accepted for %q", cmd)
		}
	}
	// No flags: no-op for every command.
	env, _ := buildEnv(7, "test", "")
	if prog, err := applyCheckpointFlags(env, "snowball", "", ""); err != nil || prog != nil {
		t.Fatalf("no-op case returned (%v, %v)", prog, err)
	}
}

func TestCheckpointFlagWiresQuarantineAndProgress(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	prog, err := applyCheckpointFlags(env, "tcp", "f", "")
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil || env.Scanner.Config.Progress != prog {
		t.Fatal("-checkpoint did not attach a progress tracker")
	}
	if _, ok := env.Scanner.Config.Failure.(zmap.QuarantineWorker); !ok {
		t.Fatalf("-checkpoint set failure policy %T, want QuarantineWorker", env.Scanner.Config.Failure)
	}
}

func TestResumeFlagLoadsCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	cp := &zmap.Checkpoint{
		Version: 2, Seed: 9, Shards: 1, Workers: 2, Multiplier: 1,
		Marks: []uint64{7, 3},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := zmap.WriteCheckpoint(f, cp); err != nil {
		t.Fatal(err)
	}
	f.Close()

	env, _ := buildEnv(7, "test", "")
	if _, err := applyCheckpointFlags(env, "ndp", "", path); err != nil {
		t.Fatal(err)
	}
	got := env.Scanner.Config.Resume
	if got == nil || got.Seed != 9 || len(got.Marks) != 2 || got.Marks[1] != 3 {
		t.Fatalf("resume loaded %+v", got)
	}

	env2, _ := buildEnv(7, "test", "")
	if _, err := applyCheckpointFlags(env2, "ndp", "", filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing resume file accepted")
	}
}

func TestFinishExitCodes(t *testing.T) {
	dir := t.TempDir()
	cp := &zmap.Checkpoint{
		Version: 2, Shards: 1, Workers: 1, Multiplier: 1,
		Marks: []uint64{5},
	}

	if got := finish(nil, filepath.Join(dir, "unused"), nil); got != 0 {
		t.Fatalf("clean run exited %d", got)
	}
	if got := finish(errors.New("boom"), filepath.Join(dir, "unused2"), nil); got != 1 {
		t.Fatalf("hard failure exited %d", got)
	}

	// A quarantine partial failure writes its checkpoint and exits 3.
	path := filepath.Join(dir, "partial.json")
	pe := &zmap.PartialError{Checkpoint: cp, WorkerErrs: map[int]error{0: errors.New("dead")}}
	if got := finish(pe, path, nil); got != 3 {
		t.Fatalf("partial failure exited %d", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := zmap.ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Marks[0] != 5 {
		t.Fatalf("written checkpoint %+v", back)
	}

	// A partial failure without -checkpoint is a hard failure: there is
	// nowhere to persist the remainder.
	if got := finish(pe, "", nil); got != 1 {
		t.Fatalf("partial failure without -checkpoint exited %d", got)
	}
}

// TestInterruptWritesCheckpoint drives the real command path with a
// pre-cancelled context — the moral equivalent of SIGINT before the
// first send — and asserts the interrupt maps to exit code 3 with a
// resumable checkpoint on disk.
func TestInterruptWritesCheckpoint(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	env.Scanner.Config.Workers = 2
	path := filepath.Join(t.TempDir(), "int.json")
	prog, err := applyCheckpointFlags(env, "tcp", path, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cmdErr := runTCPScan(ctx, env, []string{"-prefix", "2001:db8:10::/48", "-ports", "2"})
	if cmdErr == nil {
		t.Fatal("cancelled scan reported success")
	}
	if got := finish(cmdErr, path, prog); got != 3 {
		t.Fatalf("interrupted run exited %d", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := zmap.ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Workers != 2 || len(cp.Marks) != 2 {
		t.Fatalf("interrupt checkpoint %+v", cp)
	}
}
