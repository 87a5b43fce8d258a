package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/specaccel"
)

var updateProfileGolden = flag.Bool("update", false, "rewrite testdata/profile_golden.json from this build")

const profileGoldenFile = "testdata/profile_golden.json"

// TestProfileGolden holds the profile file of every shipped program, exact and
// approximate, to the SHA-256 recorded before the profiler's counts became
// slices and the engine's tally moved into the plain warp loop: a test cannot
// run an older commit, so the digests are committed. Regenerate with
// `go test ./internal/core -run TestProfileGolden -update` only for a change
// that is meant to move a profile.
func TestProfileGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateProfileGolden {
		raw, err := os.ReadFile(profileGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	r := campaign.Runner{}
	for _, w := range specaccel.All() {
		for _, mode := range []core.ProfileMode{core.Exact, core.Approximate} {
			key := w.Name() + "/" + mode.String()
			p, _, err := r.Profile(w, mode)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256([]byte(p.String()))
			got[key] = hex.EncodeToString(sum[:])
			if *updateProfileGolden {
				continue
			}
			if ref, ok := want[key]; !ok {
				t.Errorf("no golden entry for %s", key)
			} else if got[key] != ref {
				t.Errorf("%s: profile digest moved: got %s, want %s", key, got[key], ref)
			}
		}
	}
	if len(got) != len(want) && !*updateProfileGolden {
		t.Errorf("%d profiles checked, golden file holds %d", len(got), len(want))
	}
	if *updateProfileGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(profileGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
