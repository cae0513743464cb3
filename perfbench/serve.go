package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bhive/internal/profcache"
	"bhive/internal/server"
)

// cacheSaves is how many full profile-cache saves a traced run times.
const cacheSaves = 5

// serveJob is one closed-loop job as the client saw it.
type serveJob struct {
	LatencyS    float64         `json:"latency_s"`
	Non2xx      int             `json:"non2xx"`
	Err         string          `json:"err,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	QueueWaitMs float64         `json:"queue_wait_ms,omitempty"`
	CacheHits   uint64          `json:"cache_hits,omitempty"`
	Profiled    uint64          `json:"profiled,omitempty"`
}

// serveReport is what the server process reports about its run.
type serveReport struct {
	Run        procDelta  `json:"run"`
	Jobs       []serveJob `json:"jobs"`
	EvaluateMs []float64  `json:"evaluate_ms"`
	ResultMs   []float64  `json:"result_ms"`
	Non2xx     int        `json:"non2xx"`

	// Traced runs only.
	CacheEntries   int     `json:"cache_entries"`
	CacheBytes     int64   `json:"cache_bytes"`
	SaveMs         float64 `json:"save_ms"`
	CkptBytesShard float64 `json:"ckpt_bytes_per_shard"`
}

// serveMain is the server process: an in-process evaluation server on a
// loopback listener with a profile cache and per-job checkpoint journals,
// and one closed-loop client submitting the pre-generated request bodies.
func serveMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench serve", flag.ContinueOnError)
	var (
		inputs  = fs.String("inputs", "", "request bodies, one JSON object per line")
		dir     = fs.String("dir", "", "server state directory")
		seconds = fs.Float64("seconds", 25, "measured window")
		traced  = fs.Bool("trace", false, "time handler calls and cache saves")
		spans   = fs.String("spans", "", "span file for a traced run")
		only    = fs.Bool("setup-only", false, "set up, report the time the server was ready, and stop")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *only {
		ls, err := startServer(*dir, &handlerStats{})
		if err != nil {
			return err
		}
		ready := hostNow()
		if err := ls.stop(); err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(map[string]int64{"ready_host_ns": ready})
	}
	raw, err := os.ReadFile(*inputs)
	if err != nil {
		return err
	}
	bodies := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))

	var tr *Tracer
	if *traced {
		tr = newTracer()
	}
	st := &handlerStats{tr: tr}

	// Rounds: a fresh server and cache each, over every body in order,
	// until the window has passed. Every round does the same work, so a
	// faster server runs more rounds, not a larger cache.
	var rep serveReport
	var live *liveServer
	window := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < window; round++ {
		ls, err := startServer(filepath.Join(*dir, fmt.Sprintf("round-%d", round)), st)
		if err != nil {
			return err
		}
		live = ls
		c := &client{base: "http://" + ls.addr, http: &http.Client{}, tr: tr}
		before := sampleProc()
		for j, body := range bodies {
			rep.Jobs = append(rep.Jobs, c.job(int32(round*len(bodies)+j), body))
		}
		rep.Run = rep.Run.add(sampleProc().since(before))
		if err := ls.stop(); err != nil {
			return err
		}
		c.http.CloseIdleConnections()
	}
	rep.EvaluateMs, rep.ResultMs, rep.Non2xx = st.snapshot()
	if *traced {
		if err := cacheFigures(live, &rep, tr); err != nil {
			return err
		}
		if err := tr.WriteJSONL(*spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// liveServer is one running server with its listener.
type liveServer struct {
	dir   string
	cache *profcache.Cache
	srv   *server.Server
	http  *http.Server
	addr  string
	done  chan error
}

func startServer(dir string, st *handlerStats) (*liveServer, error) {
	pc, err := profcache.Open(filepath.Join(dir, "profiles.json"))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "data"), Cache: pc, FsyncEvery: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{dir: dir, cache: pc, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1),
		http: &http.Server{Handler: st.wrap(srv.Handler())}}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop drains the server's jobs, closes the listener and waits for the
// serve loop to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serr := ls.srv.Shutdown(ctx)
	herr := ls.http.Shutdown(ctx)
	if err := <-ls.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(serr, herr)
}

// cacheFigures measures the profile cache and the checkpoint journals the
// run left behind: entry count and file size, the time of a full Save at
// that size (on copies, median of several, each in a span), and journal
// bytes per (µarch, shard).
func cacheFigures(ls *liveServer, rep *serveReport, tr *Tracer) error {
	path := filepath.Join(ls.dir, "profiles.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep.CacheEntries = ls.cache.Len()
	rep.CacheBytes = int64(len(raw))
	var saves []float64
	for k := 0; k < cacheSaves; k++ {
		cp := filepath.Join(ls.dir, fmt.Sprintf("save-%d.json", k))
		if err := os.WriteFile(cp, raw, 0o644); err != nil {
			return err
		}
		c, err := profcache.Open(cp)
		if err != nil {
			return err
		}
		c.Put("perfbench-marker", profcache.Entry{}) // makes the copy dirty
		d := tr.Time("profcache.save", -1, -1, func() { err = c.Save() })
		if err != nil {
			return err
		}
		saves = append(saves, float64(d)/1e6)
	}
	rep.SaveMs = median(saves)

	journals, err := filepath.Glob(filepath.Join(ls.dir, "data", "jobs", "*", "checkpoint.jsonl"))
	if err != nil {
		return err
	}
	var per []float64
	for _, j := range journals {
		fi, err := os.Stat(j)
		if err != nil {
			return err
		}
		per = append(per, float64(fi.Size())/float64(len(workloadCPUs("table5"))))
	}
	rep.CkptBytesShard = median(per)
	return nil
}

// handlerStats times the server's handlers from a wrapper around
// Server.Handler().
type handlerStats struct {
	tr *Tracer

	mu       sync.Mutex
	evaluate []float64
	result   []float64
	non2xx   int
}

func (hs *handlerStats) snapshot() (evaluate, result []float64, non2xx int) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.evaluate, hs.result, hs.non2xx
}

// Request headers carrying the client's job span, so handler spans nest
// under the job that caused them.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrRun  = "X-Perfbench-Run"
)

func (hs *handlerStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		parent, run := headerID(r, hdrSpan), headerID(r, hdrRun)
		span := hs.tr.Begin("server."+route, parent, run)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t := time.Now()
		h.ServeHTTP(rec, r)
		ms := float64(time.Since(t)) / 1e6
		hs.tr.End(span)
		hs.mu.Lock()
		defer hs.mu.Unlock()
		switch route {
		case "evaluate":
			hs.evaluate = append(hs.evaluate, ms)
		case "result":
			hs.result = append(hs.result, ms)
		}
		if rec.code < 200 || rec.code > 299 {
			hs.non2xx++
		}
	})
}

func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/v1/evaluate":
		return "evaluate"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/events"):
		return "events"
	}
	return "status"
}

func headerID(r *http.Request, name string) int32 {
	v, err := strconv.Atoi(r.Header.Get(name))
	if err != nil {
		return -1
	}
	return int32(v)
}

// statusRecorder remembers the response code and keeps the SSE handler's
// Flusher reachable through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.code, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// client is the closed-loop job submitter.
type client struct {
	base string
	http *http.Client
	tr   *Tracer // non-nil in a traced run, which also polls for queue wait
}

// job submits one request body, follows the job's event stream to its
// end, and fetches the result. Latency runs from submit to the result
// body received.
func (c *client) job(run int32, body []byte) serveJob {
	var j serveJob
	span := c.tr.Begin("job", -1, run)
	defer c.tr.End(span)
	t0 := hostNow()
	fail := func(err error) serveJob {
		j.Err = err.Error()
		j.LatencyS = float64(hostNow()-t0) / 1e9
		return j
	}
	var sub struct{ ID, State string }
	code, raw, err := c.do(&j, http.MethodPost, "/v1/evaluate", body, span, run)
	if err != nil {
		return fail(err)
	}
	if code != http.StatusAccepted {
		return fail(fmt.Errorf("submit: status %d: %s", code, raw))
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	submitted := time.Now()
	if c.tr != nil {
		if err := c.awaitStart(&j, sub.ID, span, run); err != nil {
			return fail(err)
		}
		j.QueueWaitMs = float64(time.Since(submitted)) / 1e6
	}
	state, err := c.events(&j, sub.ID, span, run)
	if err != nil {
		return fail(err)
	}
	if state != "done" {
		return fail(fmt.Errorf("job %s ended %s", sub.ID, state))
	}
	code, raw, err = c.do(&j, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, span, run)
	if err != nil {
		return fail(err)
	}
	j.LatencyS = float64(hostNow()-t0) / 1e9
	if code != http.StatusOK {
		return fail(fmt.Errorf("result: status %d", code))
	}
	j.Result = raw
	if c.tr != nil {
		st, err := c.status(&j, sub.ID, span, run)
		if err != nil {
			return fail(err)
		}
		if st.Metrics != nil {
			j.CacheHits, j.Profiled = st.Metrics.CacheHits, st.Metrics.Profiled
		}
	}
	return j
}

// do sends one request and reads the whole response, counting a non-2xx
// status against the job.
func (c *client) do(j *serveJob, method, path string, body []byte, span, run int32) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(hdrSpan, strconv.Itoa(int(span)))
	req.Header.Set(hdrRun, strconv.Itoa(int(run)))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		j.Non2xx++
	}
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c *client) status(j *serveJob, id string, span, run int32) (*server.JobStatus, error) {
	code, raw, err := c.do(j, http.MethodGet, "/v1/jobs/"+id, nil, span, run)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status: %d", code)
	}
	var st server.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// awaitStart polls the job's status until it leaves the queue (traced
// runs only: the polling is load the untraced runs do not carry).
func (c *client) awaitStart(j *serveJob, id string, span, run int32) error {
	for {
		st, err := c.status(j, id, span, run)
		if err != nil {
			return err
		}
		if st.State != "queued" {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// events follows the job's SSE stream to its terminal event and returns
// the final state.
func (c *client) events(j *serveJob, id string, span, run int32) (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(hdrSpan, strconv.Itoa(int(span)))
	req.Header.Set(hdrRun, strconv.Itoa(int(run)))
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.Non2xx++
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sawDone := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			sawDone = true
			continue
		}
		if sawDone && strings.HasPrefix(line, "data: ") {
			return strings.TrimPrefix(line, "data: "), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended without a done event")
}
