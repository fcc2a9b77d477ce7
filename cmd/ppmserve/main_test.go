package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// TestFlagsToRuntimeConfig pins each role's flag surface: the defaults, the
// mapping of the serve flags that select a runtime behavior rather than carry
// a number, every rejected flag combination with its message, and the
// removed flags and values that are refused (a flag the role does not define
// fails parseFlags rather than check).
func TestFlagsToRuntimeConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		role    string
		args    []string
		wantErr string // substring of the parse or check error; "" = accepted
		check   func(t *testing.T, o options, cfg runtime.Config)
	}{
		{name: "defaults", role: "serve", args: []string{"-listen", ":7070"},
			check: func(t *testing.T, o options, cfg runtime.Config) {
				if o.windows != 500 || o.heartbeat != 10*time.Second || o.resumeWindow != 30*time.Second ||
					o.drainTimeout != 30*time.Second || o.replayBuffer != 256 {
					t.Errorf("serve defaults = %+v", o)
				}
				if cfg.Shards != 8 || cfg.ShardBuffer != 256 || cfg.Seed != 1 || cfg.Slide != 0 ||
					cfg.Lateness != runtime.DropLate ||
					cfg.Budget != 0 || cfg.BudgetPolicy != runtime.BudgetDeny ||
					cfg.Durability != nil || cfg.TraceSample != 0 || cfg.MechanismFor == nil {
					t.Errorf("runtime defaults = %+v", cfg)
				}
			}},
		{name: "client defaults", role: "client", args: []string{"-connect", ":7070"},
			check: func(t *testing.T, o options, _ runtime.Config) {
				if o.streams != 32 || o.windows != 500 || o.seed != 1 || o.batch != 1 ||
					o.tenant != "tenant-a" || o.reconnect {
					t.Errorf("client defaults = %+v", o)
				}
			}},
		{name: "lateness enables the reorder buffer", role: "serve", args: []string{"-listen", ":7070", "-lateness", "20", "-horizon", "90"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				if cfg.Lateness != runtime.ReorderBuffer || cfg.AllowedLateness != 20 || cfg.Horizon != 90 {
					t.Errorf("lateness %v/%d horizon %d", cfg.Lateness, cfg.AllowedLateness, cfg.Horizon)
				}
			}},
		{name: "wal-dir enables durability", role: "serve", args: []string{"-listen", ":7070", "-wal-dir", "/w", "-fsync", "always", "-checkpoint-every", "2s"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				d := cfg.Durability
				if d == nil || d.Dir != "/w" || d.Fsync != runtime.FsyncAlways || d.CheckpointEvery != 2*time.Second {
					t.Errorf("durability = %+v", d)
				}
			}},
		{name: "fsync is not parsed without wal-dir", role: "serve", args: []string{"-listen", ":7070", "-fsync", "bogus"}},
		{name: "policies", role: "serve", args: []string{"-listen", ":7070", "-budget", "5", "-budget-policy", "throttle", "-slide", "25"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				if cfg.Budget != 5 || cfg.BudgetPolicy != runtime.BudgetThrottle || cfg.Slide != 25 {
					t.Errorf("policies = %+v", cfg)
				}
			}},
		{name: "handoff with listen and wal-dir", role: "serve", args: []string{"-listen", ":1", "-wal-dir", "/w", "-handoff-to", ":2", "-handoff-token", "s"}},
		{name: "listen is required", role: "serve", args: []string{"-shards", "2"}, wantErr: "-listen is required"},
		{name: "connect is required", role: "client", args: []string{"-tenant", "alice"}, wantErr: "-connect is required"},
		{name: "handoff-to without listen", role: "serve", args: []string{"-handoff-to", ":2", "-wal-dir", "/w"},
			wantErr: "-listen is required"},
		{name: "handoff-to without wal-dir", role: "serve", args: []string{"-listen", ":1", "-handoff-to", ":2"},
			wantErr: "-handoff-to/-takeover require -wal-dir"},
		{name: "takeover without wal-dir", role: "serve", args: []string{"-takeover", ":2", "-listen", ":1"},
			wantErr: "-handoff-to/-takeover require -wal-dir"},
		{name: "handoff-to without token", role: "serve", args: []string{"-listen", ":1", "-wal-dir", "/w", "-handoff-to", ":2"},
			wantErr: "-handoff-to/-takeover require -handoff-token"},
		{name: "takeover without token", role: "serve", args: []string{"-listen", ":1", "-wal-dir", "/w", "-takeover", ":2"},
			wantErr: "-handoff-to/-takeover require -handoff-token"},
		{name: "takeover with token", role: "serve", args: []string{"-listen", ":1", "-wal-dir", "/w", "-takeover", ":2", "-handoff-token", "s"}},
		{name: "batch below one", role: "client", args: []string{"-connect", ":1", "-batch", "0"}, wantErr: "batch size 0 must be >= 1"},
		{name: "negative replay buffer", role: "serve", args: []string{"-listen", ":1", "-replay-buffer", "-1"}, wantErr: "-replay-buffer -1 must be >= 0"},
		{name: "backpressure", role: "serve", args: []string{"-listen", ":1", "-backpressure", "drop-oldest"}, wantErr: "flag provided but not defined: -backpressure"},
		{name: "budget policy", role: "serve", args: []string{"-listen", ":1", "-budget-policy", "bogus"}, wantErr: `unknown budget policy "bogus"`},
		{name: "rotate-epoch budget policy", role: "serve", args: []string{"-listen", ":1", "-budget", "5", "-budget-policy", "rotate-epoch"}, wantErr: `unknown budget policy "rotate-epoch"`},
		{name: "fsync", role: "serve", args: []string{"-listen", ":1", "-wal-dir", "/w", "-fsync", "bogus"}, wantErr: "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.role, tc.args)
			if err != nil && tc.wantErr == "" {
				t.Fatalf("parseFlags(%s, %q): %v", tc.role, tc.args, err)
			}
			if err == nil {
				err = o.check(tc.role)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("check(%s, %q) error = %v, want %q", tc.role, tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("check(%s, %q): %v", tc.role, tc.args, err)
			}
			var cfg runtime.Config
			if tc.role == "serve" {
				if cfg, err = o.runtimeConfig(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.check != nil {
				tc.check(t, o, cfg)
			}
		})
	}
}

// TestRoleFlagsRefused pins that each role parses only its own flags: a flag
// of the other role is a usage error instead of being silently ignored, and
// the retired replay mode is no subcommand.
func TestRoleFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		role string
		args []string
	}{
		{"serve", []string{"-listen", ":1", "-tenant", "alice"}},
		{"serve", []string{"-listen", ":1", "-connect", ":2"}},
		{"client", []string{"-connect", ":1", "-wal-dir", "/w"}},
		{"client", []string{"-connect", ":1", "-budget", "3"}},
		{"replay", []string{"-streams", "2"}},
	} {
		if _, err := parseFlags(tc.role, tc.args); err == nil {
			t.Errorf("parseFlags(%s, %q) accepted", tc.role, tc.args)
		}
	}
}

// TestClientRoleAgainstServer runs the client role against a server built
// from the serve role's flags over loopback TCP: every event of every stream
// must be admitted for the client's tenant.
func TestClientRoleAgainstServer(t *testing.T) {
	so, err := parseFlags("serve", []string{"-listen", "127.0.0.1:0", "-windows", "20", "-shards", "2"})
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := buildRuntime(so, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := server.New(server.Config{Runtime: rt, Auth: server.TokenAuth(0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", so.listen)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()

	co, err := parseFlags("client", []string{"-connect", l.Addr().String(), "-streams", "2", "-windows", "20", "-batch", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.check("client"); err != nil {
		t.Fatal(err)
	}
	if err := runClient(co); err != nil {
		t.Fatalf("runClient: %v", err)
	}
	ds, err := dataset(co)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, ts := range srv.Stats().Tenants {
		if ts.Tenant == co.tenant {
			got = ts.EventsIn
		}
	}
	if want := int64(2 * len(ds.Events())); got != want {
		t.Errorf("tenant %s EventsIn = %d, want %d (2 streams x the feed)", co.tenant, got, want)
	}
}
