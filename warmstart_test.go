// Tests of the persistent warm-start cache at facade level: a warm-started
// run (in-memory or from disk) must produce byte-identical results to a
// cold run on every engine, while skipping session and skeleton
// construction — which the golden round trace pins as exact round counts
// and an exact cache-agreement event sequence, so any persistence
// regression surfaces as a one-line diff.
package hybrid_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	hybrid "repro"
	"repro/internal/chaos"
	"repro/internal/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the observed values")

// warmStartModes runs APSP on a 7x7 grid in the four cache modes — cold,
// warm-memory (second call on one Network), warm-disk (fresh Network
// restored from the saved cache files), cross-seed (fresh Network under a
// NEW seed that finds only the seed-independent structural section) — on
// the given engine, returning the per-mode results and the cache-agreement
// trace of each mode's final run.
func warmStartModes(t *testing.T, eng hybrid.Engine, dir string) (cold, warmMem, warmDisk, crossSeed *hybrid.APSPResult, traces map[string][]string) {
	t.Helper()
	g := hybrid.GridGraph(7, 7)
	const seed = 42
	traces = map[string][]string{}
	record := func(mode string) hybrid.Option {
		return hybrid.WithCacheTrace(func(ev string) {
			traces[mode] = append(traces[mode], ev)
		})
	}

	coldNet := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(eng),
		hybrid.WithCacheDir(dir), record("cold"))
	var err error
	cold, err = coldNet.APSP()
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if err := coldNet.SaveCache(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Warm-memory: the same Network's caches, populated by the cold run.
	memNet := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(eng), record("warm-memory"))
	if _, err := memNet.APSP(); err != nil {
		t.Fatalf("warm-memory populate: %v", err)
	}
	traces["warm-memory"] = nil // keep only the second (warm) run's events
	warmMem, err = memNet.APSP()
	if err != nil {
		t.Fatalf("warm-memory: %v", err)
	}

	// Warm-disk: a fresh Network restored from the cold run's cache file.
	diskNet := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(eng),
		hybrid.WithCacheDir(dir), record("warm-disk"))
	status, err := diskNet.LoadCache()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !status.Structural || !status.Seed {
		t.Fatalf("LoadCache after SaveCache restored %+v, want both sections", status)
	}
	warmDisk, err = diskNet.APSP()
	if err != nil {
		t.Fatalf("warm-disk: %v", err)
	}

	// Cross-seed: a fresh Network under a different seed. Its own seed file
	// does not exist, but the structural section (keyed by graph only)
	// does: the run reuses the cluster structures and rebuilds the
	// seed-dependent state.
	crossNet := hybrid.New(g, hybrid.WithSeed(seed+1), hybrid.WithEngine(eng),
		hybrid.WithCacheDir(dir), record("cross-seed"))
	status, err = crossNet.LoadCache()
	if err != nil {
		t.Fatalf("cross-seed load: %v", err)
	}
	if !status.Structural || status.Seed {
		t.Fatalf("cross-seed LoadCache restored %+v, want structural only", status)
	}
	crossSeed, err = crossNet.APSP()
	if err != nil {
		t.Fatalf("cross-seed: %v", err)
	}
	return cold, warmMem, warmDisk, crossSeed, traces
}

// TestWarmStartByteIdentical is the warm-start analogue of the engine
// matrix: for every engine, all modes sharing a seed agree byte-for-byte
// on Dist; within each mode all engines agree on the full Metrics; the
// warm modes take strictly fewer rounds than cold while warm-disk
// reproduces warm-memory's Metrics exactly (the restored cache is
// indistinguishable from the in-memory one); and the cross-seed mode —
// same graph, new seed, structural section only — reproduces that seed's
// cold results byte-for-byte while landing strictly between its cold and
// full-warm round counts.
func TestWarmStartByteIdentical(t *testing.T) {
	type modes struct{ cold, warmMem, warmDisk, crossSeed *hybrid.APSPResult }
	g := hybrid.GridGraph(7, 7)
	perEngine := map[hybrid.Engine]modes{}
	for _, eng := range allEngines {
		dir := t.TempDir()
		cold, warmMem, warmDisk, crossSeed, _ := warmStartModes(t, eng, dir)
		perEngine[eng] = modes{cold, warmMem, warmDisk, crossSeed}

		if !reflect.DeepEqual(cold.Dist, warmMem.Dist) {
			t.Errorf("%s: warm-memory Dist differs from cold", eng)
		}
		if !reflect.DeepEqual(cold.Dist, warmDisk.Dist) {
			t.Errorf("%s: warm-disk Dist differs from cold", eng)
		}
		if warmDisk.Metrics != warmMem.Metrics {
			t.Errorf("%s: warm-disk metrics %+v differ from warm-memory %+v", eng, warmDisk.Metrics, warmMem.Metrics)
		}
		if warmMem.Metrics.Rounds >= cold.Metrics.Rounds {
			t.Errorf("%s: warm run saved nothing: %d rounds vs cold %d",
				eng, warmMem.Metrics.Rounds, cold.Metrics.Rounds)
		}

		// Cross-seed: byte-identical to that seed's own cold run, strictly
		// between cold and full warm on rounds. (The full-warm bound uses
		// the seed-42 warm run — the protocol's warm round count is
		// seed-independent here, and the golden trace pins both numbers.)
		coldB, err := hybrid.New(g, hybrid.WithSeed(43), hybrid.WithEngine(eng)).APSP()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coldB.Dist, crossSeed.Dist) {
			t.Errorf("%s: cross-seed Dist differs from the new seed's cold run", eng)
		}
		if !(crossSeed.Metrics.Rounds < coldB.Metrics.Rounds) {
			t.Errorf("%s: cross-seed warm start saved nothing: %d rounds vs cold %d",
				eng, crossSeed.Metrics.Rounds, coldB.Metrics.Rounds)
		}
		if !(crossSeed.Metrics.Rounds > warmMem.Metrics.Rounds) {
			t.Errorf("%s: cross-seed run at %d rounds is not above the full-warm %d",
				eng, crossSeed.Metrics.Rounds, warmMem.Metrics.Rounds)
		}
	}
	oracle := perEngine[hybrid.EngineLegacy]
	for _, eng := range allEngines[1:] {
		got := perEngine[eng]
		if oracle.cold.Metrics != got.cold.Metrics {
			t.Errorf("cold metrics differ: legacy %+v %s %+v", oracle.cold.Metrics, eng, got.cold.Metrics)
		}
		if oracle.warmDisk.Metrics != got.warmDisk.Metrics {
			t.Errorf("warm-disk metrics differ: legacy %+v %s %+v", oracle.warmDisk.Metrics, eng, got.warmDisk.Metrics)
		}
		if !reflect.DeepEqual(oracle.warmDisk.Dist, got.warmDisk.Dist) {
			t.Errorf("warm-disk Dist differs between legacy and %s", eng)
		}
		if oracle.crossSeed.Metrics != got.crossSeed.Metrics {
			t.Errorf("cross-seed metrics differ: legacy %+v %s %+v", oracle.crossSeed.Metrics, eng, got.crossSeed.Metrics)
		}
		if !reflect.DeepEqual(oracle.crossSeed.Dist, got.crossSeed.Dist) {
			t.Errorf("cross-seed Dist differs between legacy and %s", eng)
		}
	}
}

// TestGoldenRoundTrace pins the exact round counts and cache-agreement
// event sequences of the three modes for a fixed seed against
// testdata/warmstart_trace.golden. The trace is first asserted
// engine-independent, so the golden file guards the protocol, not an
// engine. Regenerate with: go test -run TestGoldenRoundTrace -update .
func TestGoldenRoundTrace(t *testing.T) {
	var goldenBody string
	for i, eng := range allEngines {
		cold, warmMem, warmDisk, crossSeed, traces := warmStartModes(t, eng, t.TempDir())
		var b strings.Builder
		fmt.Fprintf(&b, "graph=grid7x7 seed=42 algo=apsp (cross-seed=43)\n")
		for _, mode := range []struct {
			name string
			res  *hybrid.APSPResult
		}{{"cold", cold}, {"warm-memory", warmMem}, {"warm-disk", warmDisk}, {"cross-seed", crossSeed}} {
			fmt.Fprintf(&b, "%s rounds=%d\n", mode.name, mode.res.Metrics.Rounds)
			for _, ev := range traces[mode.name] {
				fmt.Fprintf(&b, "%s agreement: %s\n", mode.name, ev)
			}
		}
		body := b.String()
		if i == 0 {
			goldenBody = body
		} else if body != goldenBody {
			t.Fatalf("round trace differs between engines:\n%s engine:\n%s\nlegacy engine:\n%s", eng, body, goldenBody)
		}
	}

	path := filepath.Join("testdata", "warmstart_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(goldenBody), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) != goldenBody {
		t.Errorf("round trace diverged from golden file (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", goldenBody, want)
	}
}

// TestCorruptCacheFallsBackCold pins the rejection paths: corrupted bytes,
// a wrong format version, and a cache recorded for a different instance
// are all rejected by LoadCache with an error — leaving the Network cold,
// so the subsequent run is byte-identical to a never-cached one.
func TestCorruptCacheFallsBackCold(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	const seed = 42
	freshCold, err := hybrid.New(g, hybrid.WithSeed(seed)).APSP()
	if err != nil {
		t.Fatal(err)
	}

	saveValid := func(t *testing.T, dir string) string {
		t.Helper()
		net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir))
		if _, err := net.APSP(); err != nil {
			t.Fatal(err)
		}
		if err := net.SaveCache(); err != nil {
			t.Fatal(err)
		}
		return net.CachePath()
	}

	cases := map[string]func(t *testing.T, dir string){
		"corrupt bytes": func(t *testing.T, dir string) {
			path := saveValid(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x5a
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, dir string) {
			path := saveValid(t, dir)
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		},
		"wrong instance": func(t *testing.T, dir string) {
			// A valid cache file for a different seed, renamed into the
			// place this instance expects: the payload identity check
			// must reject it.
			other := hybrid.New(g, hybrid.WithSeed(seed+1), hybrid.WithCacheDir(dir))
			if _, err := other.APSP(); err != nil {
				t.Fatal(err)
			}
			if err := other.SaveCache(); err != nil {
				t.Fatal(err)
			}
			want := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir)).CachePath()
			if err := os.Rename(other.CachePath(), want); err != nil {
				t.Fatal(err)
			}
		},
		"v1 format file": func(t *testing.T, dir string) {
			// The real v1 upgrade shape: the v1 release wrote a SINGLE
			// file under the same name v2 uses for its seed section, and
			// no structural file. It must be rejected with a clean version
			// error (not misread, not misreported as a missing sibling).
			net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir))
			if err := persist.SaveCompressed(net.CachePath(), 1, struct{ Legacy string }{"v1 payload"}); err != nil {
				t.Fatal(err)
			}
		},
		"truncated compressed payload": func(t *testing.T, dir string) {
			// A flate stream cut short and re-framed behind a fresh, valid
			// header: only the decompressor can notice, and it must.
			path := saveValid(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reframed := reframe(data[24:len(data)-20], 2)
			if err := os.WriteFile(path, reframed, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"dangling structural section": func(t *testing.T, dir string) {
			// A seed file whose structural counterpart vanished: its dedup
			// references cannot be resolved, so the set must be rejected
			// rather than the seed file silently ignored.
			saveValid(t, dir)
			structs, err := filepath.Glob(filepath.Join(dir, "*-struct.hybc"))
			if err != nil || len(structs) != 1 {
				t.Fatalf("structural files: %v, %v", structs, err)
			}
			if err := os.Remove(structs[0]); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, sabotage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sabotage(t, dir)
			net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir))
			status, err := net.LoadCache()
			if err == nil || status.Any() {
				t.Fatalf("sabotaged cache accepted: status=%+v err=%v", status, err)
			}
			if name == "v1 format file" && !strings.Contains(err.Error(), "format v1") {
				t.Errorf("v1 file not rejected as a version mismatch: %v", err)
			}
			res, err := net.APSP()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Dist, freshCold.Dist) || res.Metrics != freshCold.Metrics {
				t.Error("run after rejected cache differs from a never-cached cold run")
			}
		})
	}
}

// TestChaosShortWriteFallsBackCold closes the crash-safety loop through the
// chaos layer: a torn cache write (injected via the persist FS seam, the
// moral equivalent of a crash between write and fsync) is reported as a
// successful save, but the next LoadCache rejects the torn file and the
// subsequent run is byte-identical to a never-cached cold run.
func TestChaosShortWriteFallsBackCold(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	const seed = 42
	freshCold, err := hybrid.New(g, hybrid.WithSeed(seed)).APSP()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	warm := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir))
	if _, err := warm.APSP(); err != nil {
		t.Fatal(err)
	}
	plan := chaos.NewPlan().ShortWrites(".hybc", 10, 1)
	restore := persist.SetFS(plan.FS())
	if err := warm.SaveCache(); err != nil {
		restore()
		t.Fatalf("torn save must still report success (the crash happens after): %v", err)
	}
	restore()
	if got := plan.Stats().ShortWrites; got != 1 {
		t.Fatalf("short writes fired = %d, want 1", got)
	}

	net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithCacheDir(dir))
	status, err := net.LoadCache()
	if err == nil {
		t.Fatalf("torn cache accepted: status=%+v", status)
	}
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("torn cache rejected as %v, want ErrCorrupt", err)
	}
	if status.Any() {
		t.Errorf("torn cache restored sections: %+v", status)
	}
	res, err := net.APSP()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dist, freshCold.Dist) || res.Metrics != freshCold.Metrics {
		t.Error("run after torn cache differs from a never-cached cold run")
	}
}

// reframe wraps body in a fresh, internally consistent cache-file header
// (magic, version, length, FNV-64a checksum) — the shape a deliberately
// malformed-but-checksummed payload arrives in.
func reframe(body []byte, version uint32) []byte {
	h := fnv.New64a()
	h.Write(body)
	out := make([]byte, 24, 24+len(body))
	copy(out[0:4], "HYWC")
	binary.LittleEndian.PutUint32(out[4:8], version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint64(out[16:24], h.Sum64())
	return append(out, body...)
}

// TestLoadCacheNoFileIsCold pins the (false, nil) contract for a missing
// file and the explicit error when no directory was configured.
func TestLoadCacheNoFileIsCold(t *testing.T) {
	g := hybrid.GridGraph(4, 4)
	net := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithCacheDir(t.TempDir()))
	status, err := net.LoadCache()
	if status.Any() || err != nil {
		t.Errorf("missing file: got status=%+v err=%v, want zero, nil", status, err)
	}
	bare := hybrid.New(g, hybrid.WithSeed(1))
	if _, err := bare.LoadCache(); err == nil {
		t.Error("LoadCache without WithCacheDir succeeded")
	}
	if err := bare.SaveCache(); err == nil {
		t.Error("SaveCache without WithCacheDir succeeded")
	}
	if p := bare.CachePath(); p != "" {
		t.Errorf("CachePath without WithCacheDir = %q, want empty", p)
	}
}

// TestParentCacheFilesLoad is the on-disk compatibility gate. The two files
// under testdata/warmcache were written by SaveCache after one cold APSP on
// the 7x7 grid (seed 1) at the commit before the three caches moved onto
// internal/warm — the instance whose warm row testdata/model_costs.golden
// already pins. They must still load as a full warm start, the run they warm
// must cost that golden row on every engine, and SaveCache must still write
// the same bytes, so files cross the refactor in both directions.
// Regenerate (only with a cacheFormatVersion bump) with:
// go test -run TestParentCacheFilesLoad -update .
func TestParentCacheFilesLoad(t *testing.T) {
	g := hybrid.GridGraph(7, 7)
	frozen := filepath.Join("testdata", "warmcache")
	coldSave := func(dir string) {
		t.Helper()
		nw := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithCacheDir(dir))
		if _, err := nw.APSP(); err != nil {
			t.Fatal(err)
		}
		if err := nw.SaveCache(); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.RemoveAll(frozen); err != nil {
			t.Fatal(err)
		}
		coldSave(frozen)
	}
	files, err := os.ReadDir(frozen)
	if err != nil || len(files) != 2 {
		t.Fatalf("want the structural and the seed file in %s, found %d (%v); regenerate with -update", frozen, len(files), err)
	}
	want := map[string][]byte{}
	for _, f := range files {
		if want[f.Name()], err = os.ReadFile(filepath.Join(frozen, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	sameAsFrozen := func(what, dir string) {
		t.Helper()
		for name, frozenBytes := range want {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(got, frozenBytes) {
				t.Errorf("%s: %s differs from the frozen file (%d vs %d bytes)", what, name, len(got), len(frozenBytes))
			}
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "model_costs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines {
		dir := t.TempDir()
		for name, data := range want {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		nw := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(eng), hybrid.WithCacheDir(dir))
		status, err := nw.LoadCache()
		if err != nil {
			t.Fatalf("%s: load: %v", eng, err)
		}
		if !status.Structural || !status.Seed {
			t.Fatalf("%s: LoadCache restored %+v from the frozen files, want both sections", eng, status)
		}
		m, flat, err := goldenAPSP(nw)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if row := goldenRow("apsp/grid7x7", 1, "warm", m, flat); !strings.Contains(string(golden), row) {
			t.Errorf("%s: the run warmed from the frozen files is not the golden warm row:\n%s", eng, row)
		}
		// Restore then Snapshot loses nothing: the restored caches, after
		// three guard hits, save back to the bytes they were loaded from.
		if err := nw.SaveCache(); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		sameAsFrozen(eng.String()+" re-save", dir)
	}
	fresh := t.TempDir()
	coldSave(fresh)
	sameAsFrozen("cold save", fresh)
}

// BenchmarkSnapshotSaveLoad measures the on-disk codec round trip over a
// populated warm-start cache (10x10 grid APSP), reporting the total cache
// file size alongside the save and load wall times (cmd/bench's
// persist.* probes take the same numbers at n = 1024).
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	g := hybrid.GridGraph(10, 10)
	dir := b.TempDir()
	net := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithEngine(hybrid.EngineStep), hybrid.WithCacheDir(dir))
	if _, err := net.APSP(); err != nil {
		b.Fatal(err)
	}
	if err := net.SaveCache(); err != nil {
		b.Fatal(err)
	}
	structInfo, seedInfo := net.CacheFiles()
	totalBytes := float64(structInfo.Bytes + seedInfo.Bytes)

	b.Run("save", func(b *testing.B) {
		b.ReportMetric(totalBytes, "cache-bytes")
		for i := 0; i < b.N; i++ {
			if err := net.SaveCache(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportMetric(totalBytes, "cache-bytes")
		for i := 0; i < b.N; i++ {
			fresh := hybrid.New(g, hybrid.WithSeed(1), hybrid.WithCacheDir(dir))
			status, err := fresh.LoadCache()
			if err != nil {
				b.Fatal(err)
			}
			if !status.Seed {
				b.Fatal("load restored nothing")
			}
		}
	})
}
