package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL and a stop func that waits for a clean exit.
func startDaemon(t *testing.T, o options) (string, func()) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	o.Addr = "127.0.0.1:0"
	o.Quiet = true
	o.Drain = 5 * time.Second
	o.ready = func(addr string) { ready <- addr }
	o.stop = stop
	go func() { done <- run(o, io.Discard) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() {
			close(stop)
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("run returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("daemon did not shut down")
			}
		}
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

// TestServeSolveAndShutdown boots the daemon, checks it reports
// healthy, solves a point, scrapes metrics, and shuts down gracefully.
func TestServeSolveAndShutdown(t *testing.T) {
	url, stop := startDaemon(t, options{})
	defer stop()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(health)) != "ok" {
		t.Fatalf("/healthz: %d %q, want 200 ok", resp.StatusCode, health)
	}

	resp, err = http.Post(url+"/v1/solve", "application/json",
		strings.NewReader(`{"app":"lu","pes":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d\n%s", resp.StatusCode, body)
	}
	var sr struct {
		Outcome struct {
			OK     bool    `json:"ok"`
			GFLOPS float64 `json:"gflops"`
		} `json:"outcome"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Outcome.OK || sr.Outcome.GFLOPS <= 0 || sr.Source != "computed" {
		t.Fatalf("solve response = %+v", sr)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("codesignd_solve_cache_misses_total 1")) {
		t.Fatalf("/metrics missing solve traffic:\n%s", metrics)
	}
}

// TestConfigPlumbing asserts the flag values reach serve.Config.
func TestConfigPlumbing(t *testing.T) {
	o := options{CacheBound: 7, MaxInFlight: 3, MaxQueue: 9, RequestTimeout: time.Minute}
	cfg := o.config()
	if cfg.CacheBound != 7 || cfg.MaxInFlight != 3 || cfg.MaxQueue != 9 || cfg.RequestTimeout != time.Minute {
		t.Fatalf("config = %+v", cfg)
	}
}

// TestCacheFilePersistence boots with -cache-file, solves a point,
// drains (snapshotting the cache), then boots a second daemon from the
// snapshot and asserts the same solve is served from cache.
func TestCacheFilePersistence(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "solve.cache")
	solve := func(url string) string {
		t.Helper()
		resp, err := http.Post(url+"/v1/solve", "application/json",
			strings.NewReader(`{"app":"lu","pes":4}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d\n%s", resp.StatusCode, body)
		}
		var sr struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Source
	}

	url, stop := startDaemon(t, options{CacheFile: cacheFile})
	if got := solve(url); got != "computed" {
		t.Fatalf("first-boot solve source = %q, want computed", got)
	}
	stop()
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("no snapshot written on drain: %v", err)
	}

	url, stop = startDaemon(t, options{CacheFile: cacheFile})
	defer stop()
	if got := solve(url); got != "cache" {
		t.Fatalf("warm-boot solve source = %q, want cache", got)
	}
}

// TestCacheFileBadSnapshotStartsCold asserts a corrupt snapshot is
// logged and skipped, never fatal.
func TestCacheFileBadSnapshotStartsCold(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "solve.cache")
	if err := os.WriteFile(cacheFile, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, options{CacheFile: cacheFile})
	defer stop()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(`{"app":"lu"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after bad snapshot: %d", resp.StatusCode)
	}
}
