package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fpb/internal/cluster/ring"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
)

// NodeConfig assembles one fleet member: the local serve.Server plus the
// cluster layer (ring membership, sweep coordination, replica intake).
type NodeConfig struct {
	// Serve configures the embedded single-node server (workers, queue,
	// store, logger...).
	Serve serve.Config
	// Self is this node's advertised address — its ring identity. Required
	// for multi-node fleets; defaults to "self" for a standalone node so
	// tests and single-daemon deployments need no address.
	Self string
	// Peers are the other fleet members' advertised addresses. Every node
	// must be configured with the same member set (Self ∪ Peers) — the
	// ring is static per process; membership changes are a restart.
	Peers []string
	// Replicas is the replication factor R: each completed unit is pushed
	// to the first R ring owners of its key (default 2, clamped to the
	// fleet size). R=1 means no cross-node copies.
	Replicas int
	// VNodes per member (default ring.DefaultVirtualNodes). All fleet
	// participants must agree.
	VNodes int
	// PerNodeInflight bounds concurrently dispatched units per target node
	// (default 4) so one sweep cannot bury a node's queue and starve
	// interactive jobs into 429s.
	PerNodeInflight int
	// Cooldown is the down-node skip window (default ring.DefaultCooldown).
	Cooldown time.Duration
	// ProbeInterval enables background health probing of down members.
	ProbeInterval time.Duration
}

// Node is one fpbd process in a fleet: an http.Handler layering the cluster
// endpoints over the embedded serve.Server's. Single-job traffic
// (POST /v1/jobs, /healthz, /metrics, ...) falls through to the server;
// sweep and membership traffic lands in the coordinator.
//
//	POST /v1/sweeps             accept a sweep (?wait=1 blocks until done)
//	GET  /v1/sweeps             list retained sweeps
//	GET  /v1/sweeps/{id}        poll progress (completed/total, per-node)
//	POST /v1/sweeps/{id}/cancel abort a running sweep
//	GET  /v1/cluster/members    ring membership, shares, down set
//	POST /v1/replicate          replica intake: store a pushed result
type Node struct {
	srv *serve.Server
	co  *Coordinator
	mux *http.ServeMux
}

// NewNode applies the config's defaults, then builds the server, the
// coordinator on top of it, and the combined route table, and registers the
// cluster metrics into the server's registry.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		if len(cfg.Peers) > 0 {
			return nil, fmt.Errorf("cluster: node: -peers requires an advertised self address")
		}
		cfg.Self = "self"
	}
	cfg.Self = client.Normalize(cfg.Self)
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = ring.DefaultVirtualNodes
	}
	if cfg.PerNodeInflight <= 0 {
		cfg.PerNodeInflight = 4
	}
	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	co, err := newCoordinator(cfg, srv)
	if err != nil {
		srv.Drain()
		return nil, err
	}
	co.Instrument(srv.Registry())
	n := &Node{srv: srv, co: co, mux: http.NewServeMux()}
	n.mux.HandleFunc("POST /v1/sweeps", n.handleSweepSubmit)
	n.mux.HandleFunc("GET /v1/sweeps", n.handleSweepList)
	n.mux.HandleFunc("GET /v1/sweeps/{id}", n.handleSweepStatus)
	n.mux.HandleFunc("POST /v1/sweeps/{id}/cancel", n.handleSweepCancel)
	n.mux.HandleFunc("GET /v1/cluster/members", n.handleMembers)
	n.mux.HandleFunc("POST /v1/replicate", n.handleReplicate)
	n.mux.Handle("/", srv)
	return n, nil
}

// Server exposes the embedded single-node server.
func (n *Node) Server() *serve.Server { return n.srv }

// Coordinator exposes the node's sweep coordinator.
func (n *Node) Coordinator() *Coordinator { return n.co }

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Drain stops the node: cancels running sweeps, stops the prober, then
// drains the server's worker pool. Safe to call once at shutdown.
func (n *Node) Drain() {
	n.co.Shutdown()
	n.srv.Drain()
}

func (n *Node) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// handleSweepSubmit accepts a SweepSpec. The default reply is 202 with the
// initial status (poll GET /v1/sweeps/{id}); ?wait=1 blocks until the sweep
// settles and replies 200 with the final status — the fpbctl fast path for
// small sweeps.
func (n *Node) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		n.writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	st, err := n.co.Submit(spec)
	if err != nil {
		n.writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "" {
		n.writeJSON(w, http.StatusAccepted, st)
		return
	}
	final, err := n.co.Wait(r.Context(), st.ID)
	if err != nil && !errors.Is(err, context.Canceled) {
		n.writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	n.writeJSON(w, http.StatusOK, final)
}

func (n *Node) handleSweepList(w http.ResponseWriter, r *http.Request) {
	n.writeJSON(w, http.StatusOK, n.co.Sweeps())
}

func (n *Node) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := n.co.Status(r.PathValue("id"))
	if !ok {
		n.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep id"})
		return
	}
	n.writeJSON(w, http.StatusOK, st)
}

func (n *Node) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !n.co.Cancel(id) {
		n.writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep id"})
		return
	}
	st, _ := n.co.Status(id)
	n.writeJSON(w, http.StatusOK, st)
}

func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	n.writeJSON(w, http.StatusOK, n.co.Members())
}

// handleReplicate is the replica intake: a ring successor stores a result
// pushed by the coordinator that executed it. The key is re-validated by
// the store's path discipline; nodes without persistence accept and drop
// (204) so replication remains best-effort symmetric across mixed fleets.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var rp ReplicaPut
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&rp); err != nil {
		n.writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	store := n.srv.Store()
	if store == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := store.Put(rp.Key, rp.Result); err != nil {
		n.writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusOK)
}
