package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestGatewaySnapshotPinned pins the exact bytes of the acceptance run:
// the marshaled Snapshot plus every epoch report with its wall-clock
// Elapsed zeroed. The digest was recorded while groups still rendered one
// after another on the epoch goroutine, so it is an oracle for the
// concurrent render that does not depend on the code under test agreeing
// with itself.
func TestGatewaySnapshotPinned(t *testing.T) {
	const want = "9380ec5fb6a76bcc"
	g, err := New(acceptanceConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := g.Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		reports[i].Elapsed = 0
	}
	h := sha256.New()
	for _, v := range []any{g.Snapshot(), reports} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Errorf("snapshot+reports digest %s, want %s", got, want)
	}
}
