package v6lab

// Byte-identity of the streaming analysis path: a lab that never buffers
// a capture — every frame parsed exactly once at switch-delivery time by
// the streaming Observer, with DNS/SNI attribution deferred to Finalize —
// must render exactly the FullReport the buffered two-source path does,
// at one worker and at eight alike. Together with
// TestParallelStudyByteIdentity (which pins the buffered report to its
// recorded hash) this transitively pins the streaming report to the same
// recorded bytes.

import (
	"strings"
	"testing"
)

func TestStreamingEqualsBuffered(t *testing.T) {
	buffered := sharedLab(t).FullReport()
	for _, workers := range []int{1, 8} {
		lab := New(WithCapture(CaptureNone), WithWorkers(workers))
		if err := lab.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, res := range lab.Study.Results {
			if res.Capture != nil {
				t.Fatalf("workers=%d: %s materialized a capture under CaptureNone", workers, res.Config.ID)
			}
			if res.Observed == nil {
				t.Fatalf("workers=%d: %s has no streaming observer", workers, res.Config.ID)
			}
			if got, want := res.Frames(), res.FramesDelivered; got != want {
				t.Errorf("workers=%d: %s observed %d frames, delivered %d", workers, res.Config.ID, got, want)
			}
		}
		if got := lab.FullReport(); got != buffered {
			t.Errorf("workers=%d: streaming report differs from buffered report (%d vs %d bytes)", workers, len(got), len(buffered))
		}
		if err := lab.SavePcaps(t.TempDir()); err == nil {
			t.Errorf("workers=%d: SavePcaps succeeded without captures", workers)
		} else if !strings.Contains(err.Error(), "CaptureNone") {
			t.Errorf("workers=%d: SavePcaps error %q does not name the capture policy", workers, err)
		}
	}
}
