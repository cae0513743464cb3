// Package server is the evaluation service behind cmd/bhive-serve: a
// long-running HTTP front end over the same sharded, checkpointed
// pipeline the batch CLI drives. Clients POST a corpus (or a generation
// request) to /v1/evaluate and get a job id; jobs run through
// internal/harness with a per-job fingerprint-bound checkpoint journal
// and the shared profile cache, so a server restart resumes in-flight
// jobs from their last completed shard and produces byte-identical
// results. Progress streams to clients over SSE, mirroring the CLI's
// -progress lines.
//
// Endpoints:
//
//	POST /v1/evaluate          submit a job; returns {"id": …}
//	GET  /v1/jobs/{id}         status + profiler metrics snapshot
//	GET  /v1/jobs/{id}/events  SSE stream of per-shard progress lines
//	GET  /v1/jobs/{id}/result  Table V/VI-shaped JSON (when done)
//
// Job identity is content-derived: the id is a digest of the normalized
// request, so identical submissions — concurrent or repeated — share one
// job and one profiling pass instead of duplicating work.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bhive/internal/atomicfile"
	"bhive/internal/backend"
	"bhive/internal/corpus"
	"bhive/internal/dist"
	"bhive/internal/harness"
	"bhive/internal/profcache"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

// Config parameterizes a Server.
type Config struct {
	// DataDir roots all persistent job state: DataDir/jobs/<id>/ holds the
	// normalized request, the checkpoint journal, and the final result.
	DataDir string
	// Cache, when non-nil, is the profile cache shared by every job (and
	// flushed after each one). Restarted servers re-open it and skip
	// re-measuring blocks any earlier job already profiled.
	Cache *profcache.Cache
	// Workers bounds per-job profiling parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxJobs bounds concurrently running jobs (default 1; queued jobs
	// wait their turn).
	MaxJobs int
	// StopAfterShards, when positive, is threaded into every job's harness
	// config: the run stops (durably, on a shard boundary) after that many
	// computed shards and the job returns to the queue. It exists for the
	// restart-resume tests and for chunked batch operation.
	StopAfterShards int
	// FsyncEvery is threaded into every job's harness config: the
	// checkpoint journal fsyncs once per N completed shards (group
	// commit) instead of every shard. Graceful drains still flush, so
	// only a hard kill can lose (and then recompute) up to N-1 shards.
	FsyncEvery int
	// JobTTL, when positive, garbage-collects finished (done or failed)
	// job directories that terminated longer than JobTTL ago — at startup
	// and then periodically. Queued and running jobs are never collected:
	// their checkpoints are the resume state. Zero disables GC.
	JobTTL time.Duration
	// Dist enables coordinator mode: the /v1/dist endpoints come up, and
	// eligible jobs lease their missing corpus shards to remote workers
	// instead of profiling everything locally (see dist.go).
	Dist bool
	// DistToken is the bearer token non-loopback workers must present on
	// the /v1/dist endpoints. Empty means those endpoints are
	// loopback-only.
	DistToken string
	// DistLeaseTTL, DistShardsPerLease, and DistMaxInflight tune the
	// lease table; zero values take the dist.ManagerConfig defaults.
	DistLeaseTTL       time.Duration
	DistShardsPerLease int
	DistMaxInflight    int
}

// maxRequestBytes bounds /v1/evaluate bodies (inline corpora included).
const maxRequestBytes = 64 << 20

// queueCap bounds jobs admitted but not yet run.
const queueCap = 4096

// Server owns the job registry and the worker pool. Create with New,
// serve via Handler, stop with Shutdown.
type Server struct {
	cfg       Config
	jobsDir   string
	interrupt chan struct{} // closed by Shutdown: drains jobs at shard boundaries
	queue     chan *Job
	wg        sync.WaitGroup
	dist      *dist.Manager // non-nil iff Config.Dist (coordinator mode)

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	// collecting marks job ids whose directories a GC sweep is deleting
	// outside the lock; admission for those ids is deferred (503 +
	// Retry-After) so a fresh request.json is never written into (or torn
	// down with) a directory mid-removal.
	collecting map[string]bool
}

// New builds a server over DataDir, re-queueing any job that was left
// unfinished by a previous process (its checkpoint journal makes the
// re-run resume instead of recompute).
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	s := &Server{
		cfg:        cfg,
		jobsDir:    filepath.Join(cfg.DataDir, "jobs"),
		interrupt:  make(chan struct{}),
		queue:      make(chan *Job, queueCap),
		jobs:       make(map[string]*Job),
		collecting: make(map[string]bool),
	}
	if cfg.Dist {
		s.dist = dist.NewManager(dist.ManagerConfig{
			LeaseTTL:       cfg.DistLeaseTTL,
			ShardsPerLease: cfg.DistShardsPerLease,
			MaxInflight:    cfg.DistMaxInflight,
		})
	}
	if err := os.MkdirAll(s.jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := s.scanJobs(); err != nil {
		return nil, err
	}
	if cfg.JobTTL > 0 {
		s.CollectJobs(time.Now())
		s.wg.Add(1)
		go s.gcLoop()
	}
	for w := 0; w < cfg.MaxJobs; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// scanJobs restores the registry from disk: done and failed jobs become
// queryable again, unfinished ones are re-queued for resumption.
func (s *Server) scanJobs() error {
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.jobsDir, e.Name())
		raw, err := os.ReadFile(filepath.Join(dir, "request.json"))
		if err != nil {
			// A crash between MkdirAll and the request write leaves an
			// empty job directory; it was never acknowledged to a client,
			// so it is garbage, not a job.
			continue
		}
		var req Request
		if err := json.Unmarshal(raw, &req); err != nil {
			return fmt.Errorf("server: %s: corrupt request.json: %w", e.Name(), err)
		}
		j := newJob(e.Name(), dir, req)
		switch {
		case fileExists(filepath.Join(dir, "result.json")):
			j.setState(stateDone, "")
			backfillFinished(j, filepath.Join(dir, "result.json"))
		case fileExists(filepath.Join(dir, "error.json")):
			msg := "failed"
			if raw, err := os.ReadFile(filepath.Join(dir, "error.json")); err == nil {
				var fe failureFile
				if json.Unmarshal(raw, &fe) == nil && fe.Error != "" {
					msg = fe.Error
				}
			}
			j.setState(stateFailed, msg)
			backfillFinished(j, filepath.Join(dir, "error.json"))
		default:
			s.queue <- j
		}
		s.jobs[j.ID] = j
	}
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// backfillFinished dates a restored terminal job by its terminal file's
// mtime, so job TTLs measure time since completion, not time since the
// last server restart.
func backfillFinished(j *Job, terminalFile string) {
	if fi, err := os.Stat(terminalFile); err == nil {
		j.setFinished(fi.ModTime())
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if s.dist != nil {
		mux.HandleFunc("POST /v1/dist/lease", s.distAuth(s.handleDistLease))
		mux.HandleFunc("GET /v1/dist/jobs/{id}", s.distAuth(s.handleDistSpec))
		mux.HandleFunc("POST /v1/dist/result", s.distAuth(s.handleDistResult))
		mux.HandleFunc("GET /v1/dist/status", s.distAuth(s.handleDistStatus))
	}
	return mux
}

// Shutdown drains the server: running jobs stop at their next shard
// boundary (the shard in flight is finished and checkpointed first),
// workers exit, and the shared profile cache is flushed. Jobs still
// queued or interrupted stay pending on disk; the next New over the same
// DataDir re-queues and resumes them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.interrupt)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.cfg.Cache != nil {
		return s.cfg.Cache.Save()
	}
	return nil
}

// worker runs queued jobs until Shutdown. The interrupt check comes
// first, non-blocking: a two-case select chooses randomly among ready
// cases, so a draining server with a non-empty queue would otherwise
// start a brand-new job mid-SIGTERM about half the time instead of
// exiting at the boundary.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.interrupt:
			return
		default:
		}
		select {
		case <-s.interrupt:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// handleEvaluate admits one job. Identical normalized requests map to the
// same job id, so a resubmission (or a concurrent duplicate) attaches to
// the existing job instead of profiling twice.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req Request
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if err := req.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := req.id()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		state, detail := j.State()
		writeJSON(w, http.StatusOK, submitResponse{ID: id, State: state, Detail: detail})
		return
	}
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.collecting[id] {
		// A GC sweep is deleting this id's previous directory outside the
		// lock; persisting a new request.json now would race the RemoveAll.
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job directory is being garbage-collected; retry")
		return
	}
	dir := filepath.Join(s.jobsDir, id)
	j := newJob(id, dir, req)
	if err := j.persistRequest(); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	select {
	case s.queue <- j:
	default:
		// Remove the just-persisted directory before releasing the lock: a
		// concurrent resubmission of the same request could otherwise
		// re-persist into this directory (admission holds the lock) and be
		// torn down by this RemoveAll. The directory holds only
		// request.json at this point, so deleting under the lock is cheap.
		os.RemoveAll(dir)
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job queue is full")
		return
	}
	s.jobs[id] = j
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: stateQueued})
}

func (s *Server) job(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	state, detail := j.State()
	if state != stateDone {
		writeJSON(w, http.StatusConflict, submitResponse{ID: j.ID, State: state, Detail: detail})
		return
	}
	// Serve the persisted bytes verbatim: the byte-identity guarantee of
	// checkpointed resumption extends all the way to the client.
	raw, err := os.ReadFile(j.resultPath())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleEvents streams the job's progress lines as server-sent events:
// one "data:" event per line, every past line replayed first, then live
// lines as shards complete, then a terminal "done" event carrying the
// final state. An interrupted stream (server shutdown) ends with an
// "interrupted" event; reconnecting after restart replays everything the
// resumed run reports.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	n := 0
	for {
		lines, state, changed := j.progressFrom(n)
		for _, ln := range lines {
			// A dead client surfaces as a write error here; without the
			// check the goroutine would keep looping (and buffering) until
			// the job's next state change, long after the peer is gone.
			if _, err := fmt.Fprintf(w, "data: %s\n\n", ln); err != nil {
				return
			}
			n++
		}
		if len(lines) > 0 {
			fl.Flush()
		}
		if state == stateDone || state == stateFailed {
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", state)
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.interrupt:
			fmt.Fprint(w, "event: interrupted\ndata: server shutting down; job resumes on restart\n\n")
			fl.Flush()
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		state, _ := j.State()
		counts[state]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": counts})
}

type submitResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Detail string `json:"detail,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Request is the /v1/evaluate body. Omitted fields take the documented
// defaults during normalization; the job id digests the normalized form,
// so spelling a default out changes nothing.
type Request struct {
	// Experiments are harness experiment ids (default ["table5"]).
	Experiments []string `json:"experiments,omitempty"`
	// Uarch restricts the per-µarch figures to one microarchitecture
	// (empty = all three, as in the paper).
	Uarch string `json:"uarch,omitempty"`
	// CorpusCSV is an inline corpus in the app,hex,freq interchange
	// format. Empty means generate the paper's corpus at Scale/Seed.
	CorpusCSV string `json:"corpus_csv,omitempty"`
	// Asm is an inline corpus as an assembly listing ('@ app [freq]'
	// headers, one Intel- or AT&T-syntax instruction per line). It is
	// mutually exclusive with CorpusCSV. Normalization round-trips the
	// listing through the encoder into CorpusCSV and clears this field, so
	// a job id depends only on the canonical machine code — submitting the
	// same corpus as hex or as assembly yields the same job.
	Asm string `json:"asm,omitempty"`
	// Scale samples the generated corpus (default 0.02); ignored when
	// CorpusCSV is set.
	Scale float64 `json:"scale,omitempty"`
	// Seed drives corpus generation and every stochastic component
	// (default 7; 0 means the default).
	Seed int64 `json:"seed,omitempty"`
	// TrainIthemal includes the learned model (adds LSTM training time).
	TrainIthemal bool `json:"train_ithemal,omitempty"`
	// IthemalEpochs bounds the training cost (default 12).
	IthemalEpochs int `json:"ithemal_epochs,omitempty"`
	// ShardSize is the checkpointing granularity (default
	// harness.DefaultShardSize).
	ShardSize int `json:"shard_size,omitempty"`
	// Backends are measurement-backend specs ("sim", "perturbed",
	// "recorded:<path>") for the cross-validation experiment. When set and
	// Experiments is omitted, the job defaults to ["xval"]. Trace paths
	// resolve on the server's filesystem.
	Backends []string `json:"backends,omitempty"`
}

// normalize applies defaults and validates. It runs both at submission
// and is implicitly encoded in the persisted request, so a restarted
// server rebuilds the exact same harness configuration.
func (r *Request) normalize() error {
	if len(r.Experiments) == 0 {
		if len(r.Backends) > 0 {
			r.Experiments = []string{harness.XValID}
		} else {
			r.Experiments = []string{"table5"}
		}
	}
	valid := map[string]bool{"all": true}
	for _, n := range harness.AllNames() {
		valid[n] = true
	}
	for _, e := range r.Experiments {
		if !valid[e] {
			return fmt.Errorf("unknown experiment %q (have %s, all)", e, strings.Join(harness.AllNames(), ", "))
		}
	}
	seen := map[string]bool{}
	for _, spec := range r.Backends {
		if err := backend.CheckSpec(spec); err != nil {
			return err
		}
		if seen[spec] {
			return fmt.Errorf("duplicate backend spec %q", spec)
		}
		seen[spec] = true
	}
	if r.Uarch != "" {
		if _, err := uarch.ByName(r.Uarch); err != nil {
			return err
		}
	}
	if r.Asm != "" {
		if r.CorpusCSV != "" {
			return fmt.Errorf("asm and corpus_csv are mutually exclusive")
		}
		recs, err := corpus.ReadAsm(strings.NewReader(r.Asm))
		if err != nil {
			return fmt.Errorf("asm: %w", err)
		}
		var sb strings.Builder
		if err := corpus.WriteCSV(&sb, recs); err != nil {
			return fmt.Errorf("asm: %w", err)
		}
		r.CorpusCSV, r.Asm = sb.String(), ""
	}
	if r.CorpusCSV != "" {
		if _, err := corpus.ReadCSV(strings.NewReader(r.CorpusCSV)); err != nil {
			return fmt.Errorf("corpus_csv: %w", err)
		}
	}
	if r.Scale <= 0 {
		r.Scale = harness.DefaultConfig().Scale
	}
	if r.Seed == 0 {
		r.Seed = harness.DefaultConfig().Seed
	}
	if r.IthemalEpochs <= 0 {
		r.IthemalEpochs = harness.DefaultConfig().IthemalEpochs
	}
	if r.ShardSize <= 0 {
		r.ShardSize = harness.DefaultShardSize
	}
	return nil
}

// id derives the job identity from the normalized request content.
func (r *Request) id() (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// harnessConfig translates a normalized request into the fingerprint-
// relevant half of a harness config — exactly the fields a distributed
// worker must mirror to rebuild the coordinator's suite (see
// WorkerHarnessConfig). Server-scoped execution knobs layer on top in
// Server.harnessConfig.
func (r *Request) harnessConfig() (harness.Config, error) {
	cfg := harness.DefaultConfig()
	cfg.Scale = r.Scale
	cfg.Seed = r.Seed
	cfg.TrainIthemal = r.TrainIthemal
	cfg.IthemalEpochs = r.IthemalEpochs
	cfg.ShardSize = r.ShardSize
	if r.CorpusCSV != "" {
		recs, err := corpus.ReadCSV(strings.NewReader(r.CorpusCSV))
		if err != nil {
			return cfg, fmt.Errorf("corpus_csv: %w", err)
		}
		cfg.Records = recs
	}
	return cfg, nil
}

// harnessConfig translates the request into a job-scoped harness config.
func (s *Server) harnessConfig(j *Job) (harness.Config, error) {
	cfg, err := j.req.harnessConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Workers = s.cfg.Workers
	cfg.CheckpointPath = filepath.Join(j.dir, "checkpoint.jsonl")
	cfg.FsyncEvery = s.cfg.FsyncEvery
	cfg.ProfileCache = s.cfg.Cache
	cfg.Progress = &progressWriter{j: j}
	cfg.Interrupt = s.interrupt
	cfg.Metrics = j.metrics
	cfg.StopAfterShards = s.cfg.StopAfterShards
	return cfg, nil
}

// Result is the /result payload: one structured entry per requested
// experiment, carrying the Table V/VI-shaped tables plus the exact text
// rendering the batch CLI would have printed.
type Result struct {
	ID          string               `json:"id"`
	Experiments []*harness.RunResult `json:"experiments"`
}

type failureFile struct {
	Error string `json:"error"`
}

// runJob executes one job to a terminal state — or back to the queue
// state if it was interrupted by shutdown (its checkpoint makes the
// eventual re-run cheap). The shared profile cache is flushed after every
// job so a crash loses at most one job's worth of profiles.
func (s *Server) runJob(j *Job) {
	j.setState(stateRunning, "")
	raw, err := s.executeJob(j)
	switch {
	case errors.Is(err, harness.ErrInterrupted):
		j.setState(stateQueued, "interrupted on a shard boundary; resumes on restart")
	case err != nil:
		msg := err.Error()
		if ferr := writeFileAtomic(filepath.Join(j.dir, "error.json"), mustJSON(failureFile{Error: msg})); ferr != nil {
			msg = fmt.Sprintf("%s (and persisting the failure failed: %v)", msg, ferr)
		}
		j.setState(stateFailed, msg)
	default:
		if werr := writeFileAtomic(j.resultPath(), raw); werr != nil {
			j.setState(stateFailed, werr.Error())
		} else {
			j.setState(stateDone, "")
		}
	}
	if s.cfg.Cache != nil {
		if serr := s.cfg.Cache.Save(); serr != nil {
			j.appendProgress(fmt.Sprintf("warning: profile cache save failed: %v", serr))
		}
	}
}

// executeJob drives the harness for one job and renders the result bytes.
func (s *Server) executeJob(j *Job) (_ []byte, err error) {
	cfg, err := s.harnessConfig(j)
	if err != nil {
		return nil, err
	}
	if len(j.req.Backends) > 0 {
		bes, berr := backend.ParseList(strings.Join(j.req.Backends, ","),
			backend.Options{Cache: s.cfg.Cache, Metrics: j.metrics})
		if berr != nil {
			return nil, berr
		}
		defer func() {
			for _, be := range bes {
				if cerr := be.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}()
		cfg.Backends = bes
	}
	suite := harness.New(cfg)
	defer suite.Close()
	j.setBlocks(len(suite.Records()))

	if s.distEligible(j) {
		if err := s.distFill(j, suite, cfg); err != nil {
			return nil, err
		}
	}

	res := Result{ID: j.ID}
	for _, exp := range j.req.Experiments {
		rr, err := suite.RunStructured(exp, j.req.Uarch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
		res.Experiments = append(res.Experiments, rr)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return append(raw, '\n'), nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the failure/submit payload types always marshal
	}
	return raw
}

// writeFileAtomic lands bytes under path crash-safely (atomicfile.Write):
// a parallel reader, or a crash mid-write, sees either nothing or the
// complete file. The final directory sync matters: without it a crash
// shortly after "commit" can roll the rename back — a result.json or
// error.json terminal marker would vanish while the job's checkpoint
// journal says the work finished.
func writeFileAtomic(path string, raw []byte) error {
	if err := atomicfile.Write(path, ".tmp-*", raw); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// MetricsStatus is the job-status view of profiler.Metrics.
type MetricsStatus struct {
	CacheHits          uint64            `json:"cache_hits"`
	Profiled           uint64            `json:"profiled"`
	CrosscheckMismatch uint64            `json:"crosscheck_mismatch,omitempty"`
	ByStatus           map[string]uint64 `json:"by_status,omitempty"`
	// BlocksPerSec is the job's overall processing rate since its first
	// block outcome (cache hits included); MeasuredPerSec is the rate of
	// actually-measured blocks only. EtaSeconds estimates the time left
	// for the work the run has planned so far, derived from the measured
	// rate so a warm-cache resume doesn't report a hit-speed ETA for cold
	// work. All are omitted until a block completes.
	BlocksPerSec   float64 `json:"blocks_per_sec,omitempty"`
	MeasuredPerSec float64 `json:"measured_per_sec,omitempty"`
	EtaSeconds     float64 `json:"eta_seconds,omitempty"`
}

func metricsStatus(m *profiler.Metrics) *MetricsStatus {
	snap := m.Snapshot()
	ms := &MetricsStatus{
		CacheHits:          snap.CacheHits,
		Profiled:           snap.Profiled,
		CrosscheckMismatch: snap.CrosscheckMismatch,
	}
	if r, ok := m.Throughput(); ok {
		ms.BlocksPerSec = r.BlocksPerSec
		ms.MeasuredPerSec = r.MeasuredPerSec
		ms.EtaSeconds = r.Eta.Seconds()
	}
	for i, n := range snap.ByStatus {
		if n == 0 {
			continue
		}
		if ms.ByStatus == nil {
			ms.ByStatus = make(map[string]uint64)
		}
		ms.ByStatus[profiler.Status(i).String()] = n
	}
	return ms
}
