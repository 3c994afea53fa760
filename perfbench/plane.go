package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gurita "gurita"
	"gurita/internal/obs"
	"gurita/internal/serve"
)

// traceHeader carries the client's correlation id (tenant and campaign
// sequence) on the benchmark's own requests, so server-side spans of one
// campaign share it.
const traceHeader = "X-Perfbench-Trace"

// daemon is guritad's library in-process: a serve.Server on a loopback
// listener, with its handler wrapped for timing when the run is traced.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	reg  *obs.SyncRegistry

	served chan struct{} // closed when Serve returns

	mu         sync.Mutex
	grants     int
	firstGrant map[string]time.Time // tenant -> its first fair-queue grant
}

// startDaemon starts a daemon over the cache directory dir and returns once
// it answers /healthz.
func startDaemon(ctx context.Context, dir string, client *http.Client, ht *httpTrace) (*daemon, error) {
	d := &daemon{reg: obs.NewSyncRegistry(), firstGrant: make(map[string]time.Time), served: make(chan struct{})}
	srv, err := serve.New(serve.Config{
		CacheDir: dir,
		Workers:  1,
		Slots:    1,
		Registry: d.reg,
		OnGrant:  d.onGrant,
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Abort()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if ht != nil {
		h = ht.wrap(h)
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.base = "http://" + ln.Addr().String()
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	for {
		_, err := request(ctx, client, http.MethodGet, d.base+"/healthz", "", nil, http.StatusOK)
		if err == nil {
			return d, nil
		}
		if ctx.Err() != nil {
			d.stop(client)
			return nil, fmt.Errorf("daemon health: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) onGrant(tenant string) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.grants++
	if _, ok := d.firstGrant[tenant]; !ok {
		d.firstGrant[tenant] = now
	}
}

// grantCount returns how many fair-queue grants the daemon has made.
func (d *daemon) grantCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.grants
}

// firstGrantOf returns the tenant's first fair-queue grant time.
func (d *daemon) firstGrantOf(tenant string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.firstGrant[tenant]
	return t, ok
}

// stop shuts the listener, drains the server and waits for both.
func (d *daemon) stop(client *http.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // idle connections only by now; a timeout leaves Close to finish the job
	_ = d.hs.Close()
	<-d.served
	d.srv.Drain()
	_ = d.srv.Wait(ctx) // every campaign has settled before stop is called
	client.CloseIdleConnections()
}

// campaignRef names a submitted campaign.
type campaignRef struct {
	id    string
	trace string
}

// submit posts one tenant's campaign.
func submit(ctx context.Context, client *http.Client, base, tenant, trace string, specs []gurita.TrialSpec) (campaignRef, error) {
	body, err := json.Marshal(serve.SubmitRequest{Tenant: tenant, Trials: specs})
	if err != nil {
		return campaignRef{}, err
	}
	var resp serve.SubmitResponse
	if err := getJSON(ctx, client, http.MethodPost, base+"/v1/campaigns", trace, body, http.StatusAccepted, &resp); err != nil {
		return campaignRef{}, err
	}
	return campaignRef{id: resp.ID, trace: trace}, nil
}

// await long-polls a campaign until it reaches a terminal state.
func await(ctx context.Context, client *http.Client, base string, c campaignRef) (serve.CampaignDoc, error) {
	var doc serve.CampaignDoc
	err := getJSON(ctx, client, http.MethodGet, base+"/v1/campaigns/"+c.id+"?wait=1", c.trace, nil, http.StatusOK, &doc)
	return doc, err
}

// fetchResult returns one trial's served result document.
func fetchResult(ctx context.Context, client *http.Client, base string, c campaignRef, index int) ([]byte, error) {
	return request(ctx, client, http.MethodGet, fmt.Sprintf("%s/v1/campaigns/%s/results/%d", base, c.id, index), c.trace, nil, http.StatusOK)
}

func getJSON(ctx context.Context, client *http.Client, method, url, trace string, body []byte, want int, out any) error {
	data, err := request(ctx, client, method, url, trace, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// request sends one request and returns the response body, or an error
// naming the request when the status is not want.
func request(ctx context.Context, client *http.Client, method, url, trace string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// httpTrace times every request the daemon serves, by route, and records a
// span for each under the pass that issued it.
type httpTrace struct {
	log    *spanLog
	lat    *latencies
	parent atomic.Int64 // span id of the pass in progress
}

func (t *httpTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.log.now()
		h.ServeHTTP(w, r)
		end := t.log.now()
		route, id := classify(r.Method, r.URL.Path)
		if h := r.Header.Get(traceHeader); h != "" {
			id = h
		}
		t.lat.add(route, time.Duration(end-start))
		t.log.add(t.parent.Load(), id, "http."+route, start, end)
	})
}

// classify names a daemon request's route and the id in its path: a
// campaign id, or the first 16 hex digits of a cache key.
func classify(method, path string) (route, id string) {
	seg := strings.Split(strings.TrimPrefix(path, "/"), "/")
	key16 := func(k string) string {
		if len(k) > 16 {
			return k[:16]
		}
		return k
	}
	switch {
	case len(seg) == 2 && seg[1] == "campaigns" && method == http.MethodPost:
		return "serve.submit", ""
	case len(seg) == 3 && seg[1] == "campaigns":
		return "serve.status", seg[2]
	case len(seg) == 5 && seg[1] == "campaigns" && seg[3] == "results":
		return "serve.result", seg[2]
	case len(seg) == 4 && seg[1] == "cache" && seg[2] == "entries":
		if method == http.MethodPut {
			return "cachehttp.put", key16(seg[3])
		}
		return "cachehttp.get", key16(seg[3])
	case len(seg) == 5 && seg[1] == "cache" && seg[2] == "leases":
		return "cachehttp." + seg[4], key16(seg[3])
	}
	return "other", ""
}
