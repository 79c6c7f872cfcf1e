package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"v6lab/internal/server"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"extra-arg"},
		{}, // missing -addr
		{"-addr", "x", "-dup", "150"},
		{"-addr", "x", "-tenants", "0"},
	}
	for _, args := range cases {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestUnreachableServerFails(t *testing.T) {
	// A closed port: submissions error, the run reports failure.
	code, _, stderr := runCmd("-addr", "127.0.0.1:1", "-requests", "1")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
}

// testServer boots the real study server for the client to hit.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return ts
}

// TestDuplicateRatioHitsCacheAndVerifies: with -dup 100 every request
// reuses the base spec, so the second submission is a cache hit and the
// verify pass byte-compares the two fullreports.
func TestDuplicateRatioHitsCacheAndVerifies(t *testing.T) {
	ts := testServer(t)
	code, stdout, stderr := runCmd(
		"-addr", ts.URL,
		"-tenants", "1", "-requests", "2", "-dup", "100",
		"-devices", "Wyze Cam,Apple TV",
		"-verify", "-expect-cache-hits", "1",
	)
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"completed: 2", "cache hits: 1", "1 duplicate-key groups byte-compared, 0 mismatches"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestUniqueRequestsMissCache: with -dup 0 every spec is unique — for
// fleet jobs too, whose lab seed the server ignores; the cache-hit
// expectation fails loudly.
func TestUniqueRequestsMissCache(t *testing.T) {
	ts := testServer(t)
	for _, spec := range [][]string{
		{"-devices", "Wyze Cam,Apple TV"},
		{"-kind", "fleet", "-fleet-homes", "2"},
	} {
		code, stdout, stderr := runCmd(append([]string{
			"-addr", ts.URL,
			"-tenants", "1", "-requests", "2", "-dup", "0",
			"-expect-cache-hits", "1",
		}, spec...)...)
		if code != 1 {
			t.Fatalf("%v: exit code = %d, want 1 (unique requests cannot hit the cache)\nstdout:\n%s", spec, code, stdout)
		}
		if !strings.Contains(stderr, "expected at least 1 cache hits, saw 0") {
			t.Errorf("%v: stderr missing the cache-hit diagnosis:\n%s", spec, stderr)
		}
		if !strings.Contains(stdout, "completed: 2") {
			t.Errorf("%v: stdout missing completion count:\n%s", spec, stdout)
		}
	}
}

// TestConcurrentTenantsAgainstOneServer: several tenants with a mixed
// duplicate ratio all complete; nothing fails or deadlocks.
func TestConcurrentTenantsAgainstOneServer(t *testing.T) {
	ts := testServer(t)
	code, stdout, stderr := runCmd(
		"-addr", ts.URL,
		"-tenants", "3", "-requests", "2", "-dup", "50",
		"-devices", "Wyze Cam,Apple TV",
		"-verify",
	)
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "completed: 6  failed: 0") {
		t.Errorf("stdout missing full completion:\n%s", stdout)
	}
}
