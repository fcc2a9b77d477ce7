package main

import (
	"strings"
	"testing"
	"time"

	"patterndp/internal/runtime"
)

// TestFlagsToRuntimeConfig pins the flag surface: the defaults, the mapping
// of the flags that select a runtime behavior rather than carry a number, and
// every rejected flag combination with its message.
func TestFlagsToRuntimeConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the runtimeConfig error; "" = accepted
		check   func(t *testing.T, o options, cfg runtime.Config)
	}{
		{name: "defaults", check: func(t *testing.T, o options, cfg runtime.Config) {
			if o.streams != 32 || o.windows != 500 || o.batch != 1 || o.tenant != "tenant-a" ||
				o.heartbeat != 10*time.Second || o.resumeWindow != 30*time.Second ||
				o.drainTimeout != 30*time.Second || o.replayBuffer != 256 {
				t.Errorf("replay/network defaults = %+v", o)
			}
			if cfg.Shards != 8 || cfg.ShardBuffer != 256 || cfg.Seed != 1 || cfg.Slide != 0 ||
				cfg.Backpressure != runtime.Block || cfg.Lateness != runtime.DropLate ||
				cfg.Budget != 0 || cfg.BudgetPolicy != runtime.BudgetDeny ||
				cfg.Durability != nil || cfg.TraceSample != 0 || cfg.MechanismFor == nil {
				t.Errorf("runtime defaults = %+v", cfg)
			}
		}},
		{name: "lateness enables the reorder buffer", args: []string{"-lateness", "20", "-horizon", "90"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				if cfg.Lateness != runtime.ReorderBuffer || cfg.AllowedLateness != 20 || cfg.Horizon != 90 {
					t.Errorf("lateness %v/%d horizon %d", cfg.Lateness, cfg.AllowedLateness, cfg.Horizon)
				}
			}},
		{name: "wal-dir enables durability", args: []string{"-wal-dir", "/w", "-fsync", "always", "-checkpoint-every", "2s"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				d := cfg.Durability
				if d == nil || d.Dir != "/w" || d.Fsync != runtime.FsyncAlways || d.CheckpointEvery != 2*time.Second {
					t.Errorf("durability = %+v", d)
				}
			}},
		{name: "fsync is not parsed without wal-dir", args: []string{"-fsync", "bogus"}},
		{name: "policies", args: []string{"-backpressure", "drop-oldest", "-budget", "5", "-budget-policy", "rotate-epoch", "-slide", "25"},
			check: func(t *testing.T, _ options, cfg runtime.Config) {
				if cfg.Backpressure != runtime.DropOldest || cfg.Budget != 5 ||
					cfg.BudgetPolicy != runtime.BudgetRotateEpoch || cfg.Slide != 25 {
					t.Errorf("policies = %+v", cfg)
				}
			}},
		{name: "handoff with listen and wal-dir", args: []string{"-listen", ":1", "-wal-dir", "/w", "-handoff-to", ":2", "-handoff-token", "s"}},
		{name: "listen and connect", args: []string{"-listen", ":1", "-connect", ":2"},
			wantErr: "-listen and -connect are mutually exclusive"},
		{name: "handoff-to without listen", args: []string{"-handoff-to", ":2", "-wal-dir", "/w"},
			wantErr: "-handoff-to/-takeover require -listen and -wal-dir"},
		{name: "takeover without wal-dir", args: []string{"-takeover", ":2", "-listen", ":1"},
			wantErr: "-handoff-to/-takeover require -listen and -wal-dir"},
		{name: "batch below one", args: []string{"-batch", "0"}, wantErr: "batch size 0 must be >= 1"},
		{name: "negative replay buffer", args: []string{"-replay-buffer", "-1"}, wantErr: "-replay-buffer -1 must be >= 0"},
		{name: "backpressure", args: []string{"-backpressure", "bogus"}, wantErr: `unknown backpressure policy "bogus"`},
		{name: "budget policy", args: []string{"-budget-policy", "bogus"}, wantErr: `unknown budget policy "bogus"`},
		{name: "fsync", args: []string{"-wal-dir", "/w", "-fsync", "bogus"}, wantErr: "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args)
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			cfg, err := o.runtimeConfig()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("runtimeConfig(%q) error = %v, want %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("runtimeConfig(%q): %v", tc.args, err)
			}
			if tc.check != nil {
				tc.check(t, o, cfg)
			}
		})
	}
}
