package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestRefusesTrackWithServer: a track scans a same-seed replica of its
// own, which a simnetd's one world cannot give it, so -track with
// -server is refused before any world is built or store opened.
func TestRefusesTrackWithServer(t *testing.T) {
	store := filepath.Join(t.TempDir(), "scent.corpus")
	o := &options{listen: "127.0.0.1:0", store: store, seed: 7, world: "test", server: "127.0.0.1:4791", track: true}
	// A run that accepted the pair would serve until ctx ends.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := run(ctx, o); !errors.Is(err, errTrackServer) {
		t.Fatalf("run(-track -server) = %v, want errTrackServer", err)
	}
}
