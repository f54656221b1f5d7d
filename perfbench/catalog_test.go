package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
)

// BENCHMARK.json must list exactly the catalog's metrics.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the catalog %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got != (entry{m.name, m.unit, m.better}) {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, got, m)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

type plainRemote struct{}

func (plainRemote) Execute(context.Context, string, string, string, []byte, energy.Seconds, energy.Seconds) ([]byte, energy.Seconds, bool, error) {
	return []byte{1}, 2, false, nil
}

func (plainRemote) CompiledBody(context.Context, string, jit.Level) (*isa.Code, int, error) {
	return nil, 0, nil
}

type multiRemote struct{ plainRemote }

func (multiRemote) Backends() []string { return []string{"s0"} }

func (multiRemote) ExecuteOn(context.Context, string, string, string, string, []byte, energy.Seconds, energy.Seconds) ([]byte, energy.Seconds, bool, string, error) {
	return []byte{3}, 4, false, "s0", nil
}

type prober struct{}

func (prober) ProbeBackend(context.Context, string, energy.Seconds) error { return nil }

type proberRemote struct {
	plainRemote
	prober
}

type multiProberRemote struct {
	multiRemote
	prober
}

// The tap forwards exactly the optional interfaces core.Client
// type-asserts, and records what it forwards.
func TestTapForwardsOptionalInterfaces(t *testing.T) {
	for _, tc := range []struct {
		name          string
		r             core.Remote
		multi, probes bool
	}{
		{"plain", plainRemote{}, false, false},
		{"multi", multiRemote{}, true, false},
		{"prober", proberRemote{}, false, true},
		{"multi+prober", multiProberRemote{}, true, true},
	} {
		w, tp := tap(tc.r, newTracer(), 0)
		mr, multi := w.(core.MultiRemote)
		_, probes := w.(core.BackendProber)
		if multi != tc.multi || probes != tc.probes {
			t.Errorf("%s: wrapper multi=%v prober=%v, want %v %v", tc.name, multi, probes, tc.multi, tc.probes)
		}
		if _, st, _, err := w.Execute(context.Background(), "c", "K", "m", []byte("a"), 0, 0); err != nil || st != 2 || !tp.last.ok {
			t.Errorf("%s: Execute forwarded st=%v err=%v recorded=%v", tc.name, st, err, tp.last.ok)
		}
		if multi {
			if _, st, _, by, err := mr.ExecuteOn(context.Background(), "s0", "c", "K", "m", nil, 0, 0); err != nil || st != 4 || by != "s0" {
				t.Errorf("%s: ExecuteOn forwarded st=%v by=%q err=%v", tc.name, st, by, err)
			}
		}
	}
}
