// Package cluster turns N independent fpbd daemons into one simulation
// fleet. It has three layers:
//
//  1. a consistent-hash ring (internal/cluster/ring) keyed by system.Key,
//     so every node's content-addressed store stays hot for its own key
//     range and repeat queries are cache hits wherever they enter the fleet;
//  2. a sweep coordinator: POST /v1/sweeps expands N configs × M workloads
//     into a job DAG (simulate-on-owner → replicate-to-successors), fans the
//     units out to their ring owners under bounded per-node in-flight
//     limits, retries on the next replica when an owner is down or pushes
//     back, and exposes pollable progress (completed/total, per-node
//     counts) at GET /v1/sweeps/{id};
//  3. cross-node result replication: each completed unit is pushed to the R
//     ring successors of its key, so any single node's death loses no
//     results and replica reads (GET /v1/results/{key}) keep serving.
//
// Every fpbd process embeds a Node — serve.Server plus coordinator plus
// membership — so there is no dedicated coordinator process: any node
// accepts sweeps, and clients (internal/serve/client.Fleet, cmd/fpbctl)
// fail over between nodes with the same deterministic ring placement the
// nodes themselves use.
//
// Determinism contract: the simulation engine is bit-deterministic, so a
// sweep produces byte-identical Results regardless of node count, placement,
// failover events, or which node coordinated it — enforced by
// TestSweepDeterministicAcrossFleetAndFailover.
package cluster

import (
	"fmt"

	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// SweepSpec is the request body of POST /v1/sweeps: the cross product of
// schemes × mappings × workloads over an optional base config — the shape of
// every figure-style evaluation batch (schemes × workloads at fixed
// mapping, mappings × workloads at fixed scheme, or the full cube).
type SweepSpec struct {
	// Schemes to sweep (required, >= 1; names as sim.ParseScheme accepts).
	Schemes []string `json:"schemes"`
	// Mappings to sweep (optional; empty keeps the base config's mapping).
	Mappings []string `json:"mappings,omitempty"`
	// Workloads to sweep (required, >= 1).
	Workloads []string `json:"workloads"`
	// Config optionally overrides the base sim.Config (default
	// sim.DefaultConfig, like single-job specs).
	Config *sim.Config `json:"config,omitempty"`
	// Seed / InstrPerCore override the base config when non-zero.
	Seed         uint64 `json:"seed,omitempty"`
	InstrPerCore uint64 `json:"instr_per_core,omitempty"`
	// IncludeResults carries every unit's full Result in the sweep status.
	// Meant for small sweeps and tests; large sweeps should read results
	// from the stores via GET /v1/results/{key}.
	IncludeResults bool `json:"include_results,omitempty"`
}

// Unit is one expanded job of a sweep: its resolved config, its content key
// (the ring placement key), and the labels it came from.
type Unit struct {
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Mapping  string `json:"mapping,omitempty"`

	cfg sim.Config
}

// Expand produces the sweep's units in deterministic order (scheme-major,
// then mapping, then workload) with every spec validated and keyed. An
// invalid scheme/mapping/config fails the whole expansion — a sweep is
// accepted completely or not at all.
func (s SweepSpec) Expand() ([]Unit, error) {
	if len(s.Schemes) == 0 {
		return nil, fmt.Errorf("cluster: sweep: at least one scheme is required")
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("cluster: sweep: at least one workload is required")
	}
	mappings := s.Mappings
	if len(mappings) == 0 {
		mappings = []string{""}
	}
	units := make([]Unit, 0, len(s.Schemes)*len(mappings)*len(s.Workloads))
	for _, scheme := range s.Schemes {
		for _, mapping := range mappings {
			for _, wl := range s.Workloads {
				spec := serve.JobSpec{
					Workload:     wl,
					Config:       s.Config,
					Scheme:       scheme,
					Mapping:      mapping,
					Seed:         s.Seed,
					InstrPerCore: s.InstrPerCore,
				}
				cfg, _, err := spec.Resolve()
				if err != nil {
					return nil, fmt.Errorf("cluster: sweep: %s/%s/%s: %w", scheme, mapping, wl, err)
				}
				units = append(units, Unit{
					Index:    len(units),
					Key:      system.Key(cfg, wl),
					Workload: wl,
					Scheme:   scheme,
					Mapping:  mapping,
					cfg:      cfg,
				})
			}
		}
	}
	return units, nil
}

// SweepState enumerates a sweep's lifecycle.
type SweepState string

const (
	// SweepRunning: units are being dispatched/executed.
	SweepRunning SweepState = "running"
	// SweepDone: every unit completed successfully.
	SweepDone SweepState = "done"
	// SweepFailed: at least one unit failed terminally.
	SweepFailed SweepState = "failed"
	// SweepCancelled: cancelled before completion; completed units keep
	// their results (they are in the stores), pending units were abandoned.
	SweepCancelled SweepState = "cancelled"
)

// JobOutcome is the per-unit record in a sweep status.
type JobOutcome struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Mapping  string `json:"mapping,omitempty"`
	// Node is the member that executed (or cached) the unit.
	Node  string         `json:"node,omitempty"`
	State serve.JobState `json:"state"`
	// Cached reports the unit was answered from a store or coalesced
	// instead of freshly simulated.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts dispatch attempts (1 = owner answered first try;
	// more = failover or busy-retry happened).
	Attempts int            `json:"attempts,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *system.Result `json:"result,omitempty"`
}

// SweepStatus is the wire form of a sweep: POST /v1/sweeps returns it and
// GET /v1/sweeps/{id} polls it. Progress streams through Completed/Total
// and the per-node counts; Jobs carries per-unit detail.
type SweepStatus struct {
	ID    string     `json:"id"`
	State SweepState `json:"state"`
	Total int        `json:"total"`
	// Completed counts units that finished successfully; Failed counts
	// terminal unit failures. Completed+Failed == Total when the sweep
	// leaves SweepRunning (unless cancelled).
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// PerNode counts completed units by executing node — the live view of
	// how the ring spread the sweep.
	PerNode map[string]int `json:"per_node,omitempty"`
	// Replicated counts successful replica pushes to ring successors.
	Replicated int          `json:"replicated"`
	Jobs       []JobOutcome `json:"jobs,omitempty"`
	Error      string       `json:"error,omitempty"`
	ElapsedMs  float64      `json:"elapsed_ms"`
}

// MembersStatus is the wire form of GET /v1/cluster/members.
type MembersStatus struct {
	Self     string   `json:"self"`
	Members  []string `json:"members"`
	Down     []string `json:"down,omitempty"`
	Replicas int      `json:"replicas"`
	VNodes   int      `json:"vnodes"`
	// Shares maps each member to its owned keyspace fraction.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// ReplicaPut is the body of POST /v1/replicate: a completed result pushed
// to a ring successor's store.
type ReplicaPut struct {
	Key    string        `json:"key"`
	Result system.Result `json:"result"`
}
