package chrome

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// TestArtifactBytesPinned pins the SHA-256 of three artifacts built
// with a fixed provenance: the small Feb testDataset snapshot, a delta
// appending March onto it, and the same append with RollDist. Any
// change to the codec, the cell keys' text form, or assembly that
// moves a byte fails here, so a refactor that must keep the archived
// bytes can prove it in the tier-1 suite. Other architectures may fuse
// float operations (FMA) differently, so the digests hold on amd64.
func TestArtifactBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; GOARCH=%s may round floats differently", runtime.GOARCH)
	}
	tcfg := telemetry.DefaultConfig()
	baseSnap := snapshotBytes(t, testDataset)
	appendDelta := func(roll bool) []byte {
		clone := cloneDataset(t, testDataset)
		inc, err := AppendMonthCtx(context.Background(), clone, testWorld, tcfg, AppendOptions{Month: world.Mar2022, RollDist: roll})
		if err != nil {
			t.Fatal(err)
		}
		return encodeDeltaBytes(t, inc, "study.wwb", baseSnap, testProvenance)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"feb.wwb", baseSnap, "f8ed5b4fb4149a3a1f7ac76d2ec05a5508aab9df2addacd85678707a1a8fa10f"},
		{"feb+mar.wwbd", appendDelta(false), "d98f5590c259d99c572af09f65b9126d2d2d8bd00e039366b7ad0eacff23193e"},
		{"feb+mar-rolldist.wwbd", appendDelta(true), "e9abeb93303fe536ce1bbe99f839b8fabf3870b99304d30ea4fede3600186f56"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s (%d bytes), want %s", tc.name, got, len(tc.data), tc.want)
		}
	}
}
