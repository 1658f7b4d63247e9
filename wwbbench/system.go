package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/fleet"
	"wwb/internal/world"
)

// Middleware settings are the CLI defaults: wwbserve sheds above 64
// requests in flight, wwbrouter above 256, and both bound a request to
// a minute.
var (
	serverMiddleware = fleet.MiddlewareConfig{MaxInFlight: 64, RequestTimeout: time.Minute}
	routerMiddleware = fleet.MiddlewareConfig{MaxInFlight: 256, RequestTimeout: time.Minute}
)

// loadSnapshot is wwbserve's swap loader: it resolves delta chains.
func loadSnapshot(path string) (*chrome.Dataset, error) {
	ds, _, err := chrome.DecodeAnyPath(path)
	return ds, err
}

// newDatasetServer is a wwbserve -data server over ds.
func newDatasetServer(ds *chrome.Dataset, shard fleet.Assignment) *fleet.Server {
	return fleet.NewServer(ds, fleet.ServerConfig{Shard: shard, Month: ds.Opts.DistMonth, LoadSnapshot: loadSnapshot})
}

func worldConfig(cfg config) (world.Config, error) {
	wcfg, err := world.ConfigForScale(cfg.scale)
	wcfg.Seed = cfg.worldSeed
	return wcfg, err
}

// snapshotFile is a written .wwb or .wwbd artifact and its bytes.
type snapshotFile struct {
	path string
	data []byte
}

func provenanceOf(cfg config) chrome.SnapshotProvenance {
	return chrome.SnapshotProvenance{Tool: "wwbgen", WorldSeed: cfg.worldSeed, Scale: cfg.scale}
}

// writeFileAtomic writes data to a temporary file beside path and
// renames it into place, as wwbgen does.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// httpServer is one loopback listener serving a handler with the CLI
// server timeouts.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      120 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// get performs one GET and reads the whole body.
func get(c *http.Client, u string, hdr http.Header) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp, body, err
}

// serveLocal answers one request from a handler in-process.
func serveLocal(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// fixedPaths is the path set the snapshot and delta-chain checks serve:
// lists, site profiles and distribution curves for month, plus the
// roster routes and, optionally, the crux export.
func fixedPaths(ds *chrome.Dataset, month world.Month, withCrux bool) []string {
	var paths []string
	countries := ds.Countries[:min(5, len(ds.Countries))]
	for _, c := range countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				q := url.Values{"country": {c}, "platform": {fleet.PlatformParam(p)}, "metric": {fleet.MetricParam(m)},
					"month": {month.String()}, "n": {"100"}}
				paths = append(paths, "/v1/list?"+q.Encode())
			}
		}
	}
	for _, e := range ds.List(ds.Countries[0], world.Windows, world.PageLoads, month).TopN(10) {
		q := url.Values{"domain": {e.Domain}, "platform": {"windows"}, "metric": {"loads"}, "month": {month.String()}}
		paths = append(paths, "/v1/site?"+q.Encode())
	}
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			paths = append(paths, "/v1/dist?platform="+fleet.PlatformParam(p)+"&metric="+fleet.MetricParam(m))
		}
	}
	paths = append(paths, "/v1/countries", "/v1/experiments")
	if withCrux {
		for _, c := range countries[:min(2, len(countries))] {
			paths = append(paths, "/v1/crux?country="+c)
		}
	}
	return paths
}

// checkSame serves every path from got and want in-process and counts a
// failure for each path whose status or bytes differ, or that is not
// a 200.
func checkSame(g *gate, label string, got, want http.Handler, paths []string) {
	for _, p := range paths {
		gs, gb := serveLocal(got, p)
		ws, wb := serveLocal(want, p)
		g.check(gs == http.StatusOK && gs == ws && bytes.Equal(gb, wb),
			"%s: %s: status %d vs %d, %d vs %d bytes", label, p, gs, ws, len(gb), len(wb))
	}
}
