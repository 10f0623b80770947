package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"flopt/internal/cluster"
	"flopt/internal/memo"
	"flopt/internal/service/api"
	"flopt/internal/service/client"
	"flopt/internal/sim"
)

// peerHeader marks a request as peer-originated. A node receiving it
// serves locally — no routing, no placement, no re-forwarding — which
// makes forwarding loops structurally impossible: every request crosses
// the cluster at most once.
const peerHeader = "X-Floptd-Peer"

// ClusterConfig turns the daemon into one member of a static-membership
// cluster. The roster must list every member including this node (Self
// names which entry we are); all members must be started with the same
// roster, or they will disagree about ring ownership.
type ClusterConfig struct {
	// Self is this node's roster ID.
	Self string
	// Roster is the full membership, self included.
	Roster []cluster.Node
	// GossipInterval is how often peers' load snapshots are refreshed
	// (0 = 1 s). Load older than 3 intervals is treated as unknown.
	GossipInterval time.Duration
	// PeerTimeout bounds every peer call (0 = 2 s) — the deadline
	// discipline that keeps a slow peer from consuming a local request's
	// entire budget before the local fallback gets its turn.
	PeerTimeout time.Duration
}

func (c *ClusterConfig) validate() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Self not set")
	}
	for _, n := range c.Roster {
		if n.ID == c.Self {
			return nil
		}
	}
	return fmt.Errorf("cluster: self %q not in roster", c.Self)
}

// peerConn is one remote roster member: its typed client (stamped with
// the peer header) and its circuit breaker.
type peerConn struct {
	node    cluster.Node
	client  *client.Client
	breaker *cluster.Breaker
}

// clusterNode is the Server's cluster brain: the ring, the peer
// connections, the gossiped load table, and the bounded store of
// replica layout records picked up from forwarded compiles.
type clusterNode struct {
	cfg   ClusterConfig
	self  cluster.Node
	ring  *cluster.Ring
	peers map[string]*peerConn // roster minus self
	loads *cluster.Table
	met   *metrics

	replicas *memo.Cache[string, api.LayoutRecord] // layout ID → record

	stop chan struct{}
	wg   sync.WaitGroup
}

// errPeerDown reports a peer call that never reached the peer: breaker
// open, transport failure, or deadline. The caller falls back to local
// compute; it is never surfaced to clients directly.
var errPeerDown = errors.New("service: peer unreachable")

func newClusterNode(cfg ClusterConfig, maxRecs int, met *metrics) (*clusterNode, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	ids := make([]string, 0, len(cfg.Roster))
	cn := &clusterNode{
		cfg:      cfg,
		peers:    map[string]*peerConn{},
		loads:    cluster.NewTable(),
		met:      met,
		replicas: memo.New[string, api.LayoutRecord](maxRecs, nil, nil),
		stop:     make(chan struct{}),
	}
	for _, n := range cfg.Roster {
		ids = append(ids, n.ID)
		if n.ID == cfg.Self {
			cn.self = n
			continue
		}
		cn.peers[n.ID] = &peerConn{
			node: n,
			client: client.New(n.URL,
				client.WithHTTPClient(&http.Client{Timeout: cfg.PeerTimeout}),
				client.WithHeader(peerHeader, cfg.Self)),
			breaker: cluster.NewBreaker(peerBreakerThreshold, breakerCooldown, nil),
		}
	}
	cn.ring = cluster.NewRing(ids)
	for _, id := range ids {
		met.gauge(mRingShare(id), cn.ring.Share(id))
	}
	return cn, nil
}

// owner returns the roster ID owning a layout.
func (cn *clusterNode) owner(layoutID string) string { return cn.ring.Owner(layoutID) }

// call runs fn against peer id under the deadline and breaker
// discipline, maintaining the per-peer request/error counters. A 4xx
// from the peer is a healthy peer giving a semantic answer: it closes
// the breaker and is returned as-is for pass-through. Transport errors
// and 5xx trip the breaker and come back wrapped in errPeerDown so
// callers fall back to local compute.
func (cn *clusterNode) call(ctx context.Context, id string, fn func(context.Context, *client.Client) error) error {
	p, ok := cn.peers[id]
	if !ok {
		return fmt.Errorf("%w: unknown peer %q", errPeerDown, id)
	}
	if !p.breaker.Allow() {
		return fmt.Errorf("%w: %s breaker open", errPeerDown, id)
	}
	cn.met.inc(mPeerRequests(id))
	cctx, cancel := context.WithTimeout(ctx, cn.cfg.PeerTimeout)
	defer cancel()
	err := fn(cctx, p.client)
	var ae *client.APIError
	if err == nil || (errors.As(err, &ae) && ae.Status < 500) {
		p.breaker.Record(true)
		cn.met.gauge(mPeerUp(id), 1)
		return err
	}
	p.breaker.Record(false)
	cn.met.inc(mPeerErrors(id))
	if p.breaker.Open() {
		cn.met.gauge(mPeerUp(id), 0)
	}
	return fmt.Errorf("%w: %s: %v", errPeerDown, id, err)
}

// rememberRecord keeps a replica layout record (the first one per ID,
// LRU-bounded) so a later offsets/simulate miss can materialize the
// layout without another owner round-trip.
func (cn *clusterNode) rememberRecord(rec api.LayoutRecord) {
	cn.replicas.Get(context.Background(), rec.ID, func() (api.LayoutRecord, error) { return rec, nil })
}

// startGossip launches the load-refresh loop. The first sweep runs
// immediately so placement has data as soon as the node is up.
func (cn *clusterNode) startGossip(selfLoad func() cluster.Load) {
	cn.wg.Add(1)
	go func() {
		defer cn.wg.Done()
		t := time.NewTicker(cn.cfg.GossipInterval)
		defer t.Stop()
		for {
			cn.sweep(selfLoad)
			select {
			case <-cn.stop:
				return
			case <-t.C:
			}
		}
	}()
}

func (cn *clusterNode) stopGossip() {
	select {
	case <-cn.stop:
	default:
		close(cn.stop)
	}
	cn.wg.Wait()
}

// sweep refreshes the local load entry and polls every peer's
// /v1/cluster/status, adopting each peer's self-reported load.
func (cn *clusterNode) sweep(selfLoad func() cluster.Load) {
	cn.loads.Update(cn.cfg.Self, selfLoad())
	ids := make([]string, 0, len(cn.peers))
	for id := range cn.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var st *api.ClusterStatusResponse
		err := cn.call(context.Background(), id, func(ctx context.Context, c *client.Client) error {
			var err error
			st, err = c.ClusterStatus(ctx)
			return err
		})
		if err != nil {
			// A peer that cannot answer status has no current load; its
			// stale entry must not attract job placements.
			cn.loads.Forget(id)
			continue
		}
		for _, n := range st.Nodes {
			if n.ID == id && n.Self {
				cn.loads.Update(id, cluster.Load{
					QueueDepth: n.QueueDepth,
					Running:    n.RunningJobs,
					JobEWMAUS:  n.JobEWMAUS,
					Layouts:    n.LayoutsResident,
					UpdatedAt:  time.Now(),
				})
			}
		}
	}
}

// placeJob picks the node a new simulation job should run on: the
// least-backlogged member, with ties toward self. Peers with open
// breakers or load older than three gossip intervals are not
// candidates.
func (cn *clusterNode) placeJob(selfLoad cluster.Load) string {
	candidates := map[string]cluster.Load{cn.cfg.Self: selfLoad}
	staleAfter := 3 * cn.cfg.GossipInterval
	for id, p := range cn.peers {
		if p.breaker.Open() {
			continue
		}
		l, ok := cn.loads.Get(id)
		if !ok || time.Since(l.UpdatedAt) > staleAfter {
			continue
		}
		candidates[id] = l
	}
	return cluster.LeastLoaded(cn.cfg.Self, candidates)
}

// ---- Server integration ----

// clusterEnabled reports whether this Server is a cluster member.
func (s *Server) clusterEnabled() bool { return s.clu != nil }

// forwarded reports whether r arrived from a peer (and from whom).
func forwarded(r *http.Request) (string, bool) {
	peer := r.Header.Get(peerHeader)
	return peer, peer != ""
}

// propagateHeaders copies the workload headers (SLO class, client
// identity, no-record) from r onto ctx so a peer call carries them:
// the executing node's per-class histograms and -record trace then see
// the classification the client declared, not a blank.
func propagateHeaders(ctx context.Context, r *http.Request) context.Context {
	for _, h := range []string{api.HeaderSLOClass, api.HeaderClient, api.HeaderNoRecord} {
		if v := r.Header.Get(h); v != "" {
			ctx = client.ContextWithHeader(ctx, h, v)
		}
	}
	return ctx
}

// selfLoad snapshots this node's load for gossip and placement.
func (s *Server) selfLoad() cluster.Load {
	depth, running, ewma := s.jobs.loadStats()
	return cluster.Load{
		QueueDepth: depth,
		Running:    running,
		JobEWMAUS:  ewma,
		Layouts:    s.cache.Len(),
		UpdatedAt:  time.Now(),
	}
}

// fillLayout materializes a non-resident layout from the cluster: a
// locally remembered replica record, or the owner's GET /v1/layouts/{id}.
// The record is never trusted — the layout is recompiled locally and its
// content-addressed ID must reproduce the requested one, the same
// verification the crash-recovery replay applies to the journal. Fill
// builds count in cluster_fill_builds_total, not compile_builds_total.
func (s *Server) fillLayout(ctx context.Context, id string) (*compiled, error) {
	rec, ok := s.clu.replicas.Lookup(id)
	if !ok {
		owner := s.clu.owner(id)
		if owner == s.clu.cfg.Self {
			// We ARE the owner and it is not resident: nothing to fetch.
			return nil, errf(kindNotFound, "unknown layout %q (evicted or never compiled: re-POST /v1/compile — identical programs get identical IDs)", id)
		}
		var fetched *api.LayoutRecord
		err := s.clu.call(ctx, owner, func(cctx context.Context, c *client.Client) error {
			var err error
			fetched, err = c.LayoutRecord(cctx, id)
			return err
		})
		if err != nil {
			return nil, errf(kindNotFound, "unknown layout %q (owner %s: %v)", id, owner, err)
		}
		rec = *fetched
	}
	cfg := rec.Config.Apply(sim.DefaultConfig())
	if err := cfg.Validate(); err != nil {
		s.met.inc(mClusterFillMismatch)
		return nil, errf(kindNotFound, "layout %q record invalid under local platform: %v", id, err)
	}
	if got := layoutID(rec.Source, cfg); got != id {
		// The record does not reproduce the requested ID: stale roster,
		// diverged base platform, or a corrupt peer. Refuse — serving it
		// would answer queries for id with a different layout's geometry.
		s.met.inc(mClusterFillMismatch)
		return nil, errf(kindNotFound, "layout %q record failed verification (recompiles to %s)", id, got)
	}
	ent, _, err := s.compileCached(ctx, rec.Source, cfg, mClusterFillBuilds)
	if err != nil {
		return nil, errf(kindUnprocessable, "layout %q fill failed: %v", id, err)
	}
	s.clu.rememberRecord(rec)
	s.met.inc(mClusterFills)
	return ent, nil
}

// lookupOrFill is the cluster-aware cache lookup: resident entries win;
// a miss on a cluster member tries a peer fill. The bool reports whether
// a fill produced the entry.
func (s *Server) lookupOrFill(ctx context.Context, id string) (*compiled, bool, error) {
	if ent, ok := s.cache.Lookup(id); ok {
		return ent, false, nil
	}
	if !s.clusterEnabled() {
		return nil, false, errf(kindNotFound, "unknown layout %q (evicted or never compiled: re-POST /v1/compile — identical programs get identical IDs)", id)
	}
	ent, err := s.fillLayout(ctx, id)
	if err != nil {
		return nil, false, err
	}
	return ent, true, nil
}

// writeClientError re-renders a peer's 4xx as this node's response —
// status, code, message, and retry hint pass through unchanged.
func (s *Server) writeClientError(w http.ResponseWriter, ae *client.APIError) {
	s.failEnvelope(w, ae.Status, ae.RetryAfterS, ae.Message)
}

// nodeID returns this node's roster ID, or "" outside cluster mode
// (the Node response fields then stay omitted).
func (s *Server) nodeID() string {
	if s.clu != nil {
		return s.clu.cfg.Self
	}
	return ""
}

// forwardCompile routes a compile to the layout's ring owner — the
// cluster-wide singleflight: every member forwards a given program to
// the same owner, whose local singleflight then builds it exactly once.
// Returns true when the response was written (forward succeeded, or a
// healthy owner's 4xx passed through); false sends the caller down the
// local-compile path (we own the layout, it is already resident here,
// or the owner is unreachable and we degrade to local compute).
func (s *Server) forwardCompile(ctx context.Context, w http.ResponseWriter, source string, overrides *api.PlatformConfig, cfg sim.Config) bool {
	id := layoutID(source, cfg)
	owner := s.clu.owner(id)
	if owner == s.clu.cfg.Self {
		return false
	}
	if _, ok := s.cache.Lookup(id); ok {
		return false // read-through replica already resident: serve locally
	}
	var resp *api.CompileResponse
	err := s.clu.call(ctx, owner, func(cctx context.Context, c *client.Client) error {
		var err error
		resp, err = c.Compile(cctx, &api.CompileRequest{Source: source, Config: overrides})
		return err
	})
	var ae *client.APIError
	if errors.As(err, &ae) {
		// A healthy owner rejected the program; ours would say the same.
		s.met.inc(mCompileErrors)
		s.writeClientError(w, ae)
		return true
	}
	if err != nil {
		s.met.inc(mClusterLocalFallback)
		return false
	}
	s.met.inc(mClusterForwardCompile)
	// Remember the inputs as a replica record: a later offsets miss here
	// materializes the layout locally without asking the owner again.
	s.clu.rememberRecord(api.LayoutRecord{ID: resp.LayoutID, Source: source, Config: api.FromConfig(cfg)})
	if resp.Node == "" {
		resp.Node = owner
	}
	s.writeJSON(w, http.StatusOK, resp)
	return true
}

// forwardSimulate places a job onto the least-loaded member. Returns
// true when the response was written; false runs the job locally (we
// are the least loaded, or the chosen peer is unreachable).
func (s *Server) forwardSimulate(w http.ResponseWriter, r *http.Request, req *api.SimulateRequest) bool {
	target := s.clu.placeJob(s.selfLoad())
	if target == s.clu.cfg.Self {
		return false
	}
	var resp *api.JobResponse
	err := s.clu.call(propagateHeaders(r.Context(), r), target, func(cctx context.Context, c *client.Client) error {
		var err error
		resp, err = c.Simulate(cctx, req)
		return err
	})
	var ae *client.APIError
	if errors.As(err, &ae) {
		s.writeClientError(w, ae)
		return true
	}
	if err != nil {
		s.met.inc(mClusterLocalFallback)
		return false
	}
	s.met.inc(mClusterJobsPlaced)
	if resp.Node == "" {
		resp.Node = target
	}
	w.Header().Set("Location", "/v1/jobs/"+resp.JobID)
	s.writeJSON(w, http.StatusAccepted, resp)
	return true
}

// proxyJobStatus serves a poll for a job running on another member,
// resolved from the node name embedded in the job ID. Returns false
// when the ID does not parse to a known peer (the caller 404s).
func (s *Server) proxyJobStatus(w http.ResponseWriter, r *http.Request, id string) bool {
	node, _, ok := strings.Cut(strings.TrimPrefix(id, "job-"), "-")
	if !ok || node == s.clu.cfg.Self {
		return false
	}
	if _, isPeer := s.clu.peers[node]; !isPeer {
		return false
	}
	var resp *api.JobResponse
	err := s.clu.call(propagateHeaders(r.Context(), r), node, func(cctx context.Context, c *client.Client) error {
		var err error
		resp, err = c.JobStatus(cctx, id)
		return err
	})
	var ae *client.APIError
	if errors.As(err, &ae) {
		s.writeClientError(w, ae)
		return true
	}
	if err != nil {
		s.failErr(w, unavailablef(1, "job %q lives on %s, which is unreachable", id, node))
		return true
	}
	s.met.inc(mClusterJobsProxied)
	if resp.Node == "" {
		resp.Node = node
	}
	s.writeJSON(w, http.StatusOK, resp)
	return true
}

// handleLayoutRecord serves GET /v1/layouts/{id}: the portable record of
// a resident layout — what a peer fill (or an auditing client) fetches.
func (s *Server) handleLayoutRecord(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ent, ok := s.cache.Lookup(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown layout %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, api.LayoutRecord{
		ID:     ent.ID,
		Source: ent.Source,
		Config: api.FromConfig(ent.Cfg),
	})
}

// handleClusterStatus serves GET /v1/cluster/status: this node's view of
// the roster. A single-node daemon answers with one self entry, so the
// endpoint (and the client method) work identically either way.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	self := s.selfLoad()
	if !s.clusterEnabled() {
		s.writeJSON(w, http.StatusOK, api.ClusterStatusResponse{
			Self: "self",
			Nodes: []api.NodeStatus{{
				ID: "self", Self: true, Healthy: true, RingShare: 1,
				QueueDepth: self.QueueDepth, RunningJobs: self.Running,
				JobEWMAUS: self.JobEWMAUS, LayoutsResident: self.Layouts,
			}},
		})
		return
	}
	cn := s.clu
	resp := api.ClusterStatusResponse{Self: cn.cfg.Self}
	staleAfter := 3 * cn.cfg.GossipInterval
	for _, n := range cn.cfg.Roster {
		st := api.NodeStatus{ID: n.ID, URL: n.URL, RingShare: cn.ring.Share(n.ID)}
		if n.ID == cn.cfg.Self {
			st.Self, st.Healthy = true, true
			st.QueueDepth, st.RunningJobs = self.QueueDepth, self.Running
			st.JobEWMAUS, st.LayoutsResident = self.JobEWMAUS, self.Layouts
		} else if l, ok := cn.loads.Get(n.ID); ok && time.Since(l.UpdatedAt) <= staleAfter {
			st.Healthy = !cn.peers[n.ID].breaker.Open()
			st.QueueDepth, st.RunningJobs = l.QueueDepth, l.Running
			st.JobEWMAUS, st.LayoutsResident = l.JobEWMAUS, l.Layouts
		}
		resp.Nodes = append(resp.Nodes, st)
	}
	sort.Slice(resp.Nodes, func(i, j int) bool { return resp.Nodes[i].ID < resp.Nodes[j].ID })
	s.writeJSON(w, http.StatusOK, resp)
}
