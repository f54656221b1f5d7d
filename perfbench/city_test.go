package main

import (
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/experiments"
)

// The pinned cohort digest is what a serial run (Concurrency 1), the
// fleet engine's reference schedule, produces too.
func TestPinnedCohortSerial(t *testing.T) {
	env, err := experiments.Prepare(apps.MF(), profileSeed)
	if err != nil {
		t.Fatal(err)
	}
	pin := &citySetup{env: env, seed: cityPinSeed, n: cityPinClients, conc: 1}
	cr, err := pin.runCohort()
	if err != nil {
		t.Fatal(err)
	}
	if cr.sums != cr.res.Totals {
		t.Errorf("Totals %+v, streamed records sum to %+v", cr.res.Totals, cr.sums)
	}
	if got := cohortDigest(cr.digests, cr.res.Totals); got != cityPinDigest {
		t.Errorf("serial pinned cohort digest %016x, want %016x", got, uint64(cityPinDigest))
	}
}
