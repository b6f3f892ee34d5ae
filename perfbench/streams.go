package main

import (
	"qisim/internal/microarch"
)

// Request sizes. Each MC kind is sized to cost roughly the same (about
// 30 ms of one x86 core on a 2-vCPU VM) so the rotating stream has a flat
// mix. The serving workloads run on one P (see servingProcs), so one
// engine worker is all a job can use.
const (
	surfaceDistance = 5
	surfaceShots    = 12800
	pauliShots      = 150000
	readoutShots    = 400000
	mcWorkers       = 1
	// mcShards is how many shards every MC request splits into. With a
	// data dir each shard commit is a fsynced checkpoint, so the default
	// 512-shot shards (hundreds per request) would make the disk, not the
	// simulation, the cost of a serve-mc op.
	mcShards = 8
)

// pauliProgram is the pauli.mc circuit: a 5-qubit GHZ preparation with a
// rotation layer, compiled and simulated by the service on every request.
const pauliProgram = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
rz(pi/4) q[2];
ry(-0.25) q[4];
cz q[1],q[3];
measure q[0] -> c[0];
measure q[2] -> c[2];
measure q[4] -> c[4];
`

// mix is the SplitMix64 finalizer: it turns (seed, stream, index) into an
// independent-looking 64-bit value, so every generated input is a pure
// function of the workload seed.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + i*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// simSeed returns a positive non-zero MC seed.
func simSeed(seed int64, stream, i uint64) int64 {
	return int64(mix(seed, stream, i)>>2) + 1
}

// unitFloat returns a value in [0, 1).
func unitFloat(seed int64, stream, i uint64) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// Streams keep generated inputs disjoint: a request from one stream can
// never collide with a request from another.
const (
	streamMC uint64 = iota + 1
	streamMCWarm
	streamHitsWarm
	streamHitsFill
	streamHitsFresh
	streamHitsPick
	streamFleetPick
)

// mcRequest is the i-th never-seen Monte-Carlo request of a stream:
// surface.mc, pauli.mc and readout.mc in fixed rotation, each with its own
// seed. serve-mc and fleet send the same sequence for the same seed.
func mcRequest(seed int64, stream uint64, i int) request {
	s := simSeed(seed, stream, uint64(i))
	switch i % 3 {
	case 0:
		return request{Kind: "surface.mc", Params: map[string]any{
			"distance": surfaceDistance, "shots": surfaceShots, "seed": s, "workers": mcWorkers,
			"shard_size": surfaceShots / mcShards}}
	case 1:
		return request{Kind: "pauli.mc", Params: map[string]any{
			"qasm": pauliProgram, "shots": pauliShots, "seed": s, "workers": mcWorkers,
			"shard_size": pauliShots / mcShards}}
	default:
		return request{Kind: "readout.mc", Params: map[string]any{
			"shots": readoutShots, "seed": s, "workers": mcWorkers,
			"shard_size": readoutShots / mcShards}}
	}
}

// designNames lists the microarchitecture designs the analytic kinds take.
func designNames() []string {
	ds := microarch.AllDesigns()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// freshRequest is serve-hits' i-th never-seen analytic request, rotating
// scalability.sweep, scalability.analyze and dse.point. Sweeps draw three
// qubit counts and dse.point an extra gate error below 1e-3 from 53-bit
// values; analyze enumerates (design pair, distance) from a seeded offset,
// so its first 512·len(designs)² requests are distinct.
func freshRequest(seed int64, i int, designs []string) request {
	h := mix(seed, streamHitsFresh, uint64(i))
	d := designs[h%uint64(len(designs))]
	switch i % 3 {
	case 0:
		counts := make([]int, 3)
		for j := range counts {
			counts[j] = 64 + int(mix(seed, streamHitsFresh, uint64(i)<<2|uint64(j+1))%(1<<17))
		}
		return request{Kind: "scalability.sweep", Params: map[string]any{
			"design": d, "qubit_counts": counts, "distance": 23}}
	case 1:
		n := uint64(len(designs))
		c := (uint64(seed) + uint64(i/3)) % (512 * n * n)
		return request{Kind: "scalability.analyze", Params: map[string]any{
			"designs": []string{designs[c%n], designs[(c/n)%n]}, "distance": 3 + 2*int(c/(n*n))}}
	default:
		return dsePoint(seed, streamHitsFresh, i, designs, 0)
	}
}

// dsePoint is a dse.point request whose extra gate error lies in
// [lo, lo+1e-3): streams that use disjoint ranges never collide.
func dsePoint(seed int64, stream uint64, i int, designs []string, lo float64) request {
	h := mix(seed, stream, uint64(i))
	return request{Kind: "dse.point", Params: map[string]any{
		"design":           designs[h%uint64(len(designs))],
		"distance":         3 + 2*int(h>>60),
		"extra_gate_error": lo + 1e-3*unitFloat(seed, stream^0xFF, uint64(i))}}
}

// warmRequest is serve-hits' i-th warm key: small MC runs of every kind
// and analytic requests outside the fresh stream's parameter space
// (four-count sweeps, single-design analyses, extra gate errors in
// [1e-3, 2e-3)).
func warmRequest(seed int64, i int, designs []string) request {
	h := mix(seed, streamHitsWarm, uint64(i))
	d := designs[h%uint64(len(designs))]
	s := simSeed(seed, streamHitsWarm, uint64(i))
	switch i % 6 {
	case 0:
		return request{Kind: "surface.mc", Params: map[string]any{"distance": 3, "shots": 2000, "seed": s, "workers": mcWorkers}}
	case 1:
		return request{Kind: "pauli.mc", Params: map[string]any{"qasm": pauliProgram, "shots": 200, "seed": s, "workers": mcWorkers}}
	case 2:
		return request{Kind: "readout.mc", Params: map[string]any{"shots": 4000, "seed": s, "workers": mcWorkers}}
	case 3:
		counts := make([]int, 4)
		for j := range counts {
			counts[j] = 64 + int(mix(seed, streamHitsWarm, uint64(i)<<2|uint64(j))%(1<<17))
		}
		return request{Kind: "scalability.sweep", Params: map[string]any{"design": d, "qubit_counts": counts, "distance": 23}}
	case 4:
		return request{Kind: "scalability.analyze", Params: map[string]any{"designs": []string{d}, "distance": 3 + 2*i}}
	default:
		return dsePoint(seed, streamHitsWarm, i, designs, 1e-3)
	}
}
