package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mloc/internal/cache"
	"mloc/internal/cluster/fault"
	"mloc/internal/cluster/health"
	"mloc/internal/cluster/router"
	"mloc/internal/core"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

// queryHeader carries the benchmark's query id so the middleware can
// attribute a request to the client query that caused it. The router
// does not forward it; see tracing.current.
const queryHeader = "X-Bench-Query"

// capture is one /query request seen by a middleware while tracing.
type capture struct {
	layer      string // "router" or "server"
	start, end time.Time
	status     int
	reqBody    []byte
	respBody   []byte
}

// tracing is the state the middlewares of one stack share. The
// middlewares are installed only when a run is traced, and record only
// while on is set, so untraced runs serve exactly mlocd's handler stack
// and the untraced phase of a traced run passes straight through.
type tracing struct {
	on atomic.Bool
	// current is the query the single in-flight client is running; it
	// attributes shard requests, which carry no query header.
	current atomic.Int64

	mu       sync.Mutex
	captures map[int64][]capture
	requests int64 // data-node /query requests
	shed     int64 // of which answered 429 or 503
}

func newTracing() *tracing { return &tracing{captures: make(map[int64][]capture)} }

// wrap returns the benchmark middleware for one layer's Handler.
func (tr *tracing) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() || r.URL.Path != "/query" {
			next.ServeHTTP(w, r)
			return
		}
		q := tr.current.Load()
		if h := r.Header.Get(queryHeader); h != "" {
			if id, err := strconv.ParseInt(h, 10, 64); err == nil {
				q = id
			}
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rw := &teeWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rw, r)
		end := rw.lastWrite
		if end.IsZero() {
			end = time.Now()
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if layer == "server" {
			tr.requests++
			if rw.status == http.StatusTooManyRequests || rw.status == http.StatusServiceUnavailable {
				tr.shed++
			}
		}
		tr.captures[q] = append(tr.captures[q], capture{layer: layer, start: start, end: end,
			status: rw.status, reqBody: body, respBody: rw.buf.Bytes()})
	})
}

// take waits until query q has a router capture (when router is set)
// and at least nodes data-node captures, then removes and returns every
// capture of q. A capture lands just after its handler returns, which
// can be just after the client has read the response.
func (tr *tracing) take(q int64, router bool, nodes int) []capture {
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr.mu.Lock()
		c := tr.captures[q]
		r, n := 0, 0
		for _, x := range c {
			if x.layer == "router" {
				r++
			} else {
				n++
			}
		}
		if (r > 0 || !router) && n >= nodes || time.Now().After(deadline) {
			delete(tr.captures, q)
			tr.mu.Unlock()
			return c
		}
		tr.mu.Unlock()
		time.Sleep(20 * time.Microsecond)
	}
}

// reset drops captures no query took (hedge requests that lost their
// race and finished after the routed answer) and zeroes the counts.
func (tr *tracing) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.captures = make(map[int64][]capture)
	tr.requests, tr.shed = 0, 0
}

// teeWriter keeps a copy of the response body, its status and when
// the handler began its last write. A layer's span ends there: once the
// bytes reach the socket the caller can read them and act on them while
// the handler's goroutine still waits for a processor to return from
// the write, so any later end could fall after the caller's own.
type teeWriter struct {
	http.ResponseWriter
	status    int
	buf       bytes.Buffer
	lastWrite time.Time
}

func (w *teeWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.lastWrite = time.Now()
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// listener serves one handler on a loopback port until closed.
type listener struct {
	addr string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its serve loop to return.
func (l *listener) close() {
	_ = l.srv.Close() // every request has completed; nothing is left to drain
	if err := <-l.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("serve loop: %v", err)
	}
}

// dataNode is one mlocd data node: server.New behind fault.Injector on
// its own pfs.Sim, as cmd/mlocd composes it.
type dataNode struct {
	sim   *pfs.Sim
	cache *cache.Cache
	ln    *listener
}

// startDataNode serves the stores; tr is nil when the run is untraced.
func startDataNode(sim *pfs.Sim, stores map[string]*core.Store, cacheBytes int64, tr *tracing) (*dataNode, error) {
	n := &dataNode{sim: sim}
	if cacheBytes > 0 {
		c, err := cache.New(cacheBytes)
		if err != nil {
			return nil, fmt.Errorf("data node cache: %w", err)
		}
		n.cache = c
	}
	svc, err := server.New(server.Config{Stores: stores, Cache: n.cache, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("data node: %w", err)
	}
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = tr.wrap("server", h)
	}
	inj := fault.New()
	outer := http.NewServeMux()
	outer.Handle("/", inj.Wrap(h))
	outer.Handle("/cluster/fault", inj.AdminHandler())
	n.ln, err = serve(outer)
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (n *dataNode) close() { n.ln.close() }

// routerNode is an mlocd router at its defaults: router.New with a
// health.Checker, bootstrapped from the data nodes.
type routerNode struct {
	ln      *listener
	stopHC  context.CancelFunc
	checker *health.Checker
}

// nodeNames are the addresses the router knows its data nodes by, as
// in mlocd's router example. The shard map places slabs by hashing
// these names, so fixed names keep the placement, and with it the
// fan-out of every query, the same in every run; a dialer resolves them
// to the loopback ports the nodes actually listen on.
var nodeNames = []string{"127.0.0.1:8081", "127.0.0.1:8082"}

// startRouter fronts the data nodes listening at addrs; tr is nil when
// the run is untraced.
func startRouter(addrs []string, tr *tracing) (*routerNode, error) {
	nodes := nodeNames[:len(addrs)]
	resolve := make(map[string]string, len(addrs))
	for i, a := range addrs {
		resolve[nodes[i]] = a
	}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return dialer.DialContext(ctx, network, resolve[addr])
	}
	client := &http.Client{Transport: tp}
	hc, err := health.New(health.Config{Nodes: nodes, Interval: time.Second, Client: client, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("router health: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hc.Start(ctx)
	rn := &routerNode{stopHC: cancel, checker: hc}
	rt, err := router.New(router.Config{
		Nodes:       nodes,
		Replication: 2,
		HedgeAfter:  250 * time.Millisecond,
		Client:      client,
		Health:      hc,
		Logf:        logf,
	})
	if err == nil {
		err = rt.Bootstrap(ctx)
	}
	if err != nil {
		rn.stopHealth()
		return nil, fmt.Errorf("router: %w", err)
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrap("router", h)
	}
	rn.ln, err = serve(h)
	if err != nil {
		rn.stopHealth()
		return nil, err
	}
	return rn, nil
}

func (rn *routerNode) stopHealth() {
	rn.stopHC()
	rn.checker.Wait()
}

func (rn *routerNode) close() {
	rn.ln.close()
	rn.stopHealth()
}
