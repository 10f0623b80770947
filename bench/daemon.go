package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"flopt/internal/service"
	"flopt/internal/service/client"
)

// daemon is an in-process floptd serving a loopback listener, plus the
// typed client the driver reaches it with. The client's transport holds
// at most conns connections, so the driver never has more requests in
// flight than the host has CPUs.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	tr   *http.Transport
	hc   *http.Client
	cli  *client.Client
	url  string
	done chan error
}

func startDaemon(cfg service.Config, conns int) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
		url: "http://" + ln.Addr().String(),
		tr:  &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	d.hc = &http.Client{Transport: d.tr, Timeout: 30 * time.Second}
	d.cli = client.New(d.url, client.WithHTTPClient(d.hc))
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, drains accepted jobs and closes the journals.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.tr.CloseIdleConnections()
	return errors.Join(err, d.srv.Drain(ctx), d.srv.Close())
}

// serve runs one request through the daemon's handler with an httptest
// recorder: the service's own cost, with no network.
func (d *daemon) serve(method, path string, body any) (*httptest.ResponseRecorder, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(w, req)
	return w, nil
}

// counters scrapes the flat floptd_* counters and gauges of /metrics.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "floptd_")] = v
		}
	}
	return out, sc.Err()
}

// queueDepth reads the simulate queue depth from /healthz.
func (d *daemon) queueDepth(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		QueueDepth int `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.QueueDepth, nil
}

// watchQueue polls the queue depth every 10 ms until ctx ends and
// returns the largest depth seen.
func (d *daemon) watchQueue(ctx context.Context) <-chan int {
	out := make(chan int, 1)
	go func() {
		best := 0
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				out <- best
				return
			case <-t.C:
				if q, err := d.queueDepth(ctx); err == nil && q > best {
					best = q
				}
			}
		}
	}()
	return out
}
