package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"jobench"
	"jobench/internal/router"
	"jobench/internal/service"
)

const (
	routeEstimate = "/v1/estimate"
	routeOptimize = "/v1/optimize"
	routeExecute  = "/v1/execute"
)

// fleet is the serving tier in one process: a router in front of two service
// replicas, every hop over a loopback socket, as `jobench router` and
// `jobench serve` would run them.
type fleet struct {
	ctx      context.Context // cancelled by close; every server runs under it
	cancel   context.CancelFunc
	done     []chan error
	conns    connTracker
	router   string   // base URL
	replicas []string // base URLs
	// owner is the replica the router's ring sends the benchmark's one
	// world to; the other replica idles, as in any single-world deployment.
	owner string
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func serviceConfig(scale float64) service.Config {
	return service.Config{
		DefaultWorkload: "imdb", DefaultSeed: worldSeed, DefaultScale: scale,
		Logger: discardLogger(),
	}
}

// serveOn runs serve on a fresh loopback listener until close.
func (f *fleet) serveOn(serve func(context.Context, net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	f.done = append(f.done, done)
	go func() { done <- serve(f.ctx, trackedListener{ln, &f.conns}) }()
	return "http://" + ln.Addr().String(), nil
}

// connTracker remembers every connection the fleet's listeners accepted, so
// close can drop them. A graceful http.Server shutdown waits five seconds
// for a connection that was dialled but never carried a request — the
// router's transport leaves such spares behind — and the servers' own grace
// period is no longer than that.
type connTracker struct {
	mu    sync.Mutex
	conns []net.Conn
}

type trackedListener struct {
	net.Listener
	t *connTracker
}

func (l trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.t.mu.Lock()
		l.t.conns = append(l.t.conns, c)
		l.t.mu.Unlock()
	}
	return c, err
}

func startFleet(scale float64) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{ctx: ctx, cancel: cancel}
	for range 2 {
		url, err := f.serveOn(service.New(serviceConfig(scale)).Serve)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, url)
	}
	var err error
	if f.router, err = f.frontWith(f.replicas); err != nil {
		f.close()
		return nil, err
	}
	f.owner = router.NewRingFromConfig(f.replicas).Owner(router.AffinityKey("imdb", worldSeed, scale))
	return f, nil
}

// frontWith starts a router in front of the given replicas.
func (f *fleet) frontWith(replicas []string) (string, error) {
	rt, err := router.New(router.Config{Replicas: replicas, Logger: discardLogger()})
	if err != nil {
		return "", err
	}
	return f.serveOn(rt.Serve)
}

// close stops every server and waits until each has returned. No request is
// in flight by now, so the connections can simply be dropped.
func (f *fleet) close() error {
	f.cancel()
	f.conns.mu.Lock()
	for _, c := range f.conns.conns {
		_ = c.Close()
	}
	f.conns.conns = nil
	f.conns.mu.Unlock()
	var first error
	for _, done := range f.done {
		if err := <-done; err != nil && err != http.ErrServerClosed && first == nil {
			first = err
		}
	}
	f.done = nil
	return first
}

// serveInstance backs serve.cheap and serve.mixed.
type serveInstance struct {
	scale float64
	fleet *fleet
	list  []op
	// clients hold one keep-alive connection per host each. The closed
	// loops use the first maxClients of them, the open loop all.
	clients [openConns]*http.Client

	// The traced run's extra endpoints: a System of the benchmark's own for
	// the direct facade call, a service handler driven without a socket,
	// and a second router whose only replica returns canned bytes.
	sys     *jobench.System
	handler http.Handler
	stub    string
	times   [maxClients]serveTimes
}

// serveTimes are one client's per-op differences between the traced run's
// five ways of performing the same request, in microseconds.
type serveTimes struct {
	handlerSelf map[string][]float64 // by route: recorder - direct facade
	netHop      []float64            // replica over socket - recorder
	forwardSelf []float64            // via router - replica over socket
	stub        []float64            // via router to the stub
	facade      float64              // summed direct facade time
	routed      float64              // summed via-router time
}

type requestBody struct {
	Workload           string  `json:"workload"`
	Seed               int64   `json:"seed"`
	Scale              float64 `json:"scale"`
	Query              string  `json:"query"`
	Estimator          string  `json:"estimator"`
	Indexes            string  `json:"indexes,omitempty"`
	DisableNestedLoops *bool   `json:"disable_nested_loops,omitempty"`
	Rehash             *bool   `json:"rehash,omitempty"`
}

// openServe starts the fleet and lays out the ops: routes lists the routes
// each query is requested on and how often the open loop's mix repeats it.
func openServe(sz sizing, routes map[string]int) (instance, error) {
	fl, err := startFleet(sz.imdbScale)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{scale: sz.imdbScale, fleet: fl}
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	ids, err := queryIDs("imdb")
	if err != nil {
		s.close()
		return nil, err
	}
	ids = strided(ids, sz.stride)
	yes := true
	for _, route := range []string{routeEstimate, routeOptimize, routeExecute} {
		weight, ok := routes[route]
		if !ok {
			continue
		}
		for _, q := range ids {
			req := requestBody{Workload: "imdb", Seed: worldSeed, Scale: s.scale, Query: q, Estimator: jobench.EstPostgres}
			if route != routeEstimate {
				req.Indexes, req.DisableNestedLoops = "pkfk", &yes
			}
			if route == routeExecute {
				req.Rehash = &yes
			}
			b, err := json.Marshal(req)
			if err != nil {
				s.close()
				return nil, err
			}
			s.list = append(s.list, op{
				ID: len(s.list), Kind: route[len("/v1/"):], Query: q, Estimator: jobench.EstPostgres,
				Indexes: jobench.PKFK, Path: route, Body: b, Weight: weight,
			})
		}
	}
	return s, nil
}

func (s *serveInstance) ops() []op { return s.list }

// post performs one request on client's connection and returns the body of
// a 200 response; anything else is an error.
func (s *serveInstance) post(client int, base, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.clients[client].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, out)
	}
	return out, nil
}

// decode reduces a response body to the answer the gate compares.
func decode(route string, body []byte) (answer, error) {
	switch route {
	case routeEstimate:
		var r service.EstimateResponse
		err := json.Unmarshal(body, &r)
		return answer{Card: r.Cardinality}, err
	case routeOptimize:
		var r service.OptimizeResponse
		err := json.Unmarshal(body, &r)
		return answer{Cost: r.Cost, Plan: hashText(r.Plan)}, err
	default:
		var r service.ExecuteResponse
		err := json.Unmarshal(body, &r)
		return answer{Rows: r.Rows, Work: r.Work, Plan: hashText(r.Plan)}, err
	}
}

func (s *serveInstance) do(client int, o op) (answer, error) {
	body, err := s.post(client, s.fleet.router, "POST", o.Path, o.Body)
	if err != nil {
		return answer{}, err
	}
	return decode(o.Path, body)
}

// direct is the facade call the replica's handler makes for o.
func (s *serveInstance) direct(o op) (answer, error) {
	ctx := context.Background()
	switch o.Path {
	case routeEstimate:
		card, err := s.sys.EstimateCardinalityContext(ctx, o.Query, o.Estimator)
		return answer{Card: card}, err
	case routeOptimize:
		text, cost, err := s.sys.OptimizeContext(ctx, o.Query, planOptions(o))
		return answer{Cost: cost, Plan: hashText(text)}, err
	default:
		res, err := s.sys.ExecuteContext(ctx, o.Query, jobench.RunOptions{PlanOptions: planOptions(o), Rehash: true})
		return answer{Rows: res.Rows, Work: res.Work, Plan: hashText(res.Plan)}, err
	}
}

func (s *serveInstance) openSystem() (err error) {
	if s.sys == nil {
		s.sys, err = jobench.Open(jobench.Options{Scale: s.scale, Seed: worldSeed, Logf: quiet})
	}
	return err
}

func (s *serveInstance) traceSetup(*recorder) error {
	if err := s.openSystem(); err != nil {
		return err
	}
	s.handler = service.New(serviceConfig(s.scale)).Handler()
	for i := range s.times {
		s.times[i].handlerSelf = make(map[string][]float64)
	}
	// The stub replica answers every route with the same small body, so
	// the router in front of it shows the router's own cost and nothing of
	// a replica's.
	stubURL, err := s.fleet.serveOn(func(ctx context.Context, ln net.Listener) error {
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok","live":1}`))
		})}
		go func() {
			<-ctx.Done()
			_ = srv.Close()
		}()
		return srv.Serve(ln)
	})
	if err != nil {
		return err
	}
	if s.stub, err = s.fleet.frontWith([]string{stubURL}); err != nil {
		return err
	}
	// One throwaway op per client opens the recorder-driven server's pool
	// entry and every new connection, so no measured op pays a cold open
	// or a dial.
	for c := range maxClients {
		if _, err := s.unrolled(c, newRecorder(time.Now()), -1, s.list[0]); err != nil {
			return err
		}
		s.times[c] = serveTimes{handlerSelf: make(map[string][]float64)}
	}
	return nil
}

// unrolled performs o five ways, each one layer further out than the last;
// the differences between neighbours are the layers' own costs.
func (s *serveInstance) unrolled(client int, rec *recorder, root int32, o op) (answer, error) {
	id := int32(o.ID)
	us := func(sp int32) float64 { return float64(rec.spans[sp].End-rec.spans[sp].Start) / 1e3 }

	sp1 := rec.begin("facade.direct", root, id)
	want, err := s.direct(o)
	rec.end(sp1, 0)
	if err != nil {
		return answer{}, err
	}

	sp2 := rec.begin("service.recorder", root, id)
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, httptest.NewRequest("POST", o.Path, bytes.NewReader(o.Body)))
	rec.end(sp2, 0)
	if rr.Code != http.StatusOK {
		return answer{}, fmt.Errorf("recorder %s: status %d: %s", o.Path, rr.Code, rr.Body.Bytes())
	}
	bodies := [][]byte{rr.Body.Bytes()}

	var sps [3]int32
	for i, hop := range []struct{ name, base string }{
		{"replica.socket", s.fleet.owner},
		{"router.socket", s.fleet.router},
		{"router.stub", s.stub},
	} {
		sps[i] = rec.begin(hop.name, root, id)
		body, err := s.post(client, hop.base, "POST", o.Path, o.Body)
		rec.end(sps[i], 0)
		if err != nil {
			return answer{}, fmt.Errorf("%s: %w", hop.name, err)
		}
		if hop.base != s.stub {
			bodies = append(bodies, body)
		}
	}
	for _, body := range bodies {
		got, err := decode(o.Path, body)
		if err != nil {
			return answer{}, err
		}
		if got != want {
			return answer{}, fmt.Errorf("%s %s: HTTP body says %+v, facade says %+v", o.Path, o.Query, got, want)
		}
	}

	t := &s.times[client]
	t.handlerSelf[o.Path] = append(t.handlerSelf[o.Path], us(sp2)-us(sp1))
	t.netHop = append(t.netHop, us(sps[0])-us(sp2))
	t.forwardSelf = append(t.forwardSelf, us(sps[1])-us(sps[0]))
	t.stub = append(t.stub, us(sps[2]))
	t.facade += us(sp1)
	t.routed += us(sps[1])
	return want, nil
}

func (s *serveInstance) reset(bool, *recorder) error { return nil }

func (s *serveInstance) finish(traced bool, _ *recorder, extra map[string]float64) error {
	if !traced {
		return nil
	}
	var all serveTimes
	all.handlerSelf = make(map[string][]float64)
	for _, t := range s.times {
		for route, v := range t.handlerSelf {
			all.handlerSelf[route] = append(all.handlerSelf[route], v...)
		}
		all.netHop = append(all.netHop, t.netHop...)
		all.forwardSelf = append(all.forwardSelf, t.forwardSelf...)
		all.stub = append(all.stub, t.stub...)
		all.facade += t.facade
		all.routed += t.routed
	}
	for route, v := range all.handlerSelf {
		extra["service.handler_self_us."+route[len("/v1/"):]] = median(v)
	}
	extra["net.hop_us"] = median(all.netHop)
	extra["router.forward_self_us"] = median(all.forwardSelf)
	extra["router.stub_us"] = median(all.stub)
	if all.routed > 0 {
		extra["share.facade"] = all.facade / all.routed
		extra["share.http"] = 1 - all.facade/all.routed
	}
	return nil
}

// verify: what a client reads from an HTTP body must be what the facade
// returns when called directly for the same request.
func (s *serveInstance) verify(ref []answer, _ bool, _ *rand.Rand, g *gate) {
	if err := s.openSystem(); err != nil {
		g.check(false, "%v", err)
		return
	}
	for _, o := range s.list {
		want, err := s.direct(o)
		g.check(err == nil && ref[o.ID] == want, "%s %s: HTTP body says %+v, facade says %+v (%v)", o.Path, o.Query, ref[o.ID], want, err)
	}
}

func (s *serveInstance) close() error {
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	return s.fleet.close()
}
