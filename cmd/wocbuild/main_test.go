package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
)

// The default world's persisted snapshot, as `wocbuild -out dir` writes it
// (POSIX cksum 2261223097). Every change to extraction, resolution, linking,
// seq assignment or the lrec codec that moves a single byte shows up here.
const (
	goldenSnapBytes  = 743505
	goldenSnapSHA256 = "ae1eefe6d19809a8bcd540d78dcef8dc66c90de68b7ed30f90995d44c3ce8355"
)

// TestDefaultWorldSnapshotGolden pins the output of the default world end to
// end: the same steps as `wocbuild -out` with default flags — Build,
// Reconcile("restaurant", PreferSupport), then persistRecords — must write an
// lrec.snap of exactly the recorded size and SHA-256.
func TestDefaultWorldSnapshotGolden(t *testing.T) {
	w := webgen.Generate(webgen.DefaultConfig())
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	woc.Reconcile("restaurant", core.PreferSupport)

	dir := t.TempDir()
	persistRecords(woc, reg, dir, 0)

	snap, err := os.ReadFile(filepath.Join(dir, "lrec.snap"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); len(snap) != goldenSnapBytes || got != goldenSnapSHA256 {
		t.Fatalf("lrec.snap = %d bytes sha256 %s, want %d bytes sha256 %s",
			len(snap), got, goldenSnapBytes, goldenSnapSHA256)
	}
}
