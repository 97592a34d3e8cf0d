package engine_test

import (
	"reflect"
	"testing"

	"homonyms/internal/engine"
)

// TestGroupReceptionParity pins the reception tentpole's invariant:
// group-shared reception (the default) produces a Result byte-identical
// to the per-recipient reference path — decisions, rounds, statistics
// and recorded traffic included — on every configuration of the routing
// feature matrix, under both state representations ("sim" steps
// Concrete, "runtime" Counting).
func TestGroupReceptionParity(t *testing.T) {
	reps := map[string]func(engine.Config) (*engine.Result, error){
		"sim":     run,
		"runtime": runCounting,
	}
	for name, cfg := range parityConfigs() {
		for repName, run := range reps {
			t.Run(name+"/"+repName, func(t *testing.T) {
				shared := cfg
				shared.Reception = engine.ReceiveGroupShared
				perRecip := cfg
				perRecip.Reception = engine.ReceivePerRecipient

				got, err := run(shared)
				if err != nil {
					t.Fatalf("group-shared: %v", err)
				}
				want, err := run(perRecip)
				if err != nil {
					t.Fatalf("per-recipient: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("group-shared result diverges from per-recipient result:\nshared:        %+v\nper-recipient: %+v", got, want)
				}
			})
		}
	}
}

// TestBatchedRecordMatchesPerMessage pins the traffic-recording
// satellite: recording rounds stay on the batched path now, and the
// bitmap-reconstructed Delivered stream must equal the per-message
// reference's send-major order entry for entry.
func TestBatchedRecordMatchesPerMessage(t *testing.T) {
	for name, cfg := range parityConfigs() {
		if !cfg.RecordTraffic {
			continue
		}
		t.Run(name, func(t *testing.T) {
			batched := cfg
			batched.Delivery = engine.DeliverBatched
			perMsg := cfg
			perMsg.Delivery = engine.DeliverPerMessage

			got, err := run(batched)
			if err != nil {
				t.Fatalf("batched: %v", err)
			}
			want, err := run(perMsg)
			if err != nil {
				t.Fatalf("per-message: %v", err)
			}
			if len(got.Traffic) != len(want.Traffic) {
				t.Fatalf("traffic length %d, want %d", len(got.Traffic), len(want.Traffic))
			}
			for i := range want.Traffic {
				if got.Traffic[i].Round != want.Traffic[i].Round ||
					got.Traffic[i].FromSlot != want.Traffic[i].FromSlot ||
					got.Traffic[i].ToSlot != want.Traffic[i].ToSlot ||
					got.Traffic[i].Msg.Key() != want.Traffic[i].Msg.Key() {
					t.Fatalf("traffic entry %d diverges:\nbatched:     %+v\nper-message: %+v",
						i, got.Traffic[i], want.Traffic[i])
				}
			}
		})
	}
}
