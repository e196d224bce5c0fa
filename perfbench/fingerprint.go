package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/core"
)

// fingerprint is the bit-exact architectural signature of one
// simulation's measured phase, the same fields internal/core's
// crosscheck test compares: nothing in it depends on host time.
type fingerprint struct {
	Cycles   uint64            `json:"cycles"`
	Refs     uint64            `json:"refs"`
	Events   uint64            `json:"events"`
	MemReads uint64            `json:"mem_reads"`
	Counters map[string]uint64 `json:"counters"`
	Net      map[string]uint64 `json:"net"`
	Profile  map[string]uint64 `json:"miss_profile"`
}

// fingerprintOf reduces res to its fingerprint; events is the model's
// event count (a checked run's own watchdog ticks taken out).
func fingerprintOf(res *core.Result, events uint64) fingerprint {
	fp := fingerprint{
		Cycles:   uint64(res.Cycles),
		Refs:     res.Refs,
		Events:   events,
		MemReads: res.MemReads,
		Counters: map[string]uint64{},
		Net:      map[string]uint64{},
		Profile:  map[string]uint64{},
	}
	for _, name := range res.Counters.Names() {
		fp.Counters[name] = res.Counters.Value(name)
	}
	// mesh.Stats and proto.MissProfile are flat uint64 structs (the
	// profile with arrays); walk them so a new field widens the print.
	nv := reflect.ValueOf(res.Net)
	for i := 0; i < nv.NumField(); i++ {
		fp.Net[nv.Type().Field(i).Name] = nv.Field(i).Uint()
	}
	pv := reflect.ValueOf(res.Profile)
	for i := 0; i < pv.NumField(); i++ {
		f, name := pv.Field(i), pv.Type().Field(i).Name
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				fp.Profile[fmt.Sprintf("%s[%d]", name, j)] = f.Index(j).Uint()
			}
			continue
		}
		fp.Profile[name] = f.Uint()
	}
	return fp
}

// digest is the sha256 of the fingerprint's JSON (map keys sorted).
func (fp fingerprint) digest() string {
	return modelDigest([]fingerprint{fp})
}

// modelDigest is the sha256 of a workload's fingerprints in cell order:
// equal digests mean the simulated model did not change.
func modelDigest(fps []fingerprint) string {
	data, err := json.Marshal(fps)
	if err != nil {
		panic(err) // maps of strings to integers always encode
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// exact holds the simulated counts behind the ledger's exact metrics.
type exact struct {
	refs, events, cycles, misses uint64
	flits, messages, queueing    uint64
	memReads                     uint64
	energyPJ                     float64
}

func exactOf(res *core.Result, events uint64) exact {
	return exact{
		refs:     res.Refs,
		events:   events,
		cycles:   uint64(res.Cycles),
		misses:   res.Profile.TotalMisses(),
		flits:    res.Net.FlitLinkCrossing,
		messages: res.Net.Messages + res.Net.Broadcasts,
		queueing: res.Net.QueueingCycles,
		memReads: res.MemReads,
		energyPJ: res.Breakdown.Total(),
	}
}

func (e *exact) add(o exact) {
	e.refs += o.refs
	e.events += o.events
	e.cycles += o.cycles
	e.misses += o.misses
	e.flits += o.flits
	e.messages += o.messages
	e.queueing += o.queueing
	e.memReads += o.memReads
	e.energyPJ += o.energyPJ
}
