package experiment

import (
	"bytes"
	"context"
	"testing"

	"v6lab/internal/faults"
	"v6lab/internal/world"
)

// TestFaultedRunIsHistoryFree: under lossy-wifi, experiment i of a full
// study carries exactly the frames a fresh environment produces running
// config i alone. No state — retry-advanced DHCPv4 XIDs included — leaks
// from one experiment into the next, which is what lets a faulted study
// run on any number of workers.
func TestFaultedRunIsHistoryFree(t *testing.T) {
	lossy := faults.LossyWiFi()
	opts := StudyOptions{World: world.Build(nil), Faults: &lossy}
	full := NewStudyWith(opts)
	if err := full.runConnectivity(context.Background()); err != nil {
		t.Fatal(err)
	}
	retransmits := 0
	for i, cfg := range Configs {
		env := NewStudyWith(opts)
		env.beginRun(env.Clock.Now(), Configs[:i])
		alone, err := env.RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := full.Results[i].Capture, alone.Capture
		retransmits += alone.Retransmits
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d frames in the study, %d run alone", cfg.ID, got.Len(), want.Len())
		}
		for j := range want.Records {
			if !bytes.Equal(got.Records[j].Data, want.Records[j].Data) {
				t.Fatalf("%s: frame %d differs between the study and a lone run", cfg.ID, j)
			}
		}
	}
	if retransmits == 0 {
		t.Fatal("lossy-wifi provoked no retransmissions")
	}
}
