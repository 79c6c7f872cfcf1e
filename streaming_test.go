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

// TestStreamingFleetEqualsBuffered pins the fleet's default streaming path
// against a buffered fleet run: same seed, same homes, byte-identical
// aggregate artifact, same per-home frame counts.
func TestStreamingFleetEqualsBuffered(t *testing.T) {
	run := func(p CapturePolicy) *Lab {
		lab := New(WithWorkers(2))
		if err := lab.Run(Fleet(8, Seed(1), Capture(p))); err != nil {
			t.Fatal(err)
		}
		return lab
	}
	stream := run(CaptureNone)
	full := run(CaptureFull)
	a, b := stream.Report(FleetStudy), full.Report(FleetStudy)
	if a != b {
		t.Fatalf("fleet reports differ between CaptureNone and CaptureFull:\n--- streaming ---\n%s\n--- buffered ---\n%s", a, b)
	}
	for i, hr := range stream.FleetPop.Homes {
		if want := full.FleetPop.Homes[i].FramesCaptured; hr.FramesCaptured != want {
			t.Errorf("home %d: streamed %d frames, buffered %d", i, hr.FramesCaptured, want)
		}
	}
}
