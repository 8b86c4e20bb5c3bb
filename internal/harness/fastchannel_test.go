package harness

import (
	"flag"
	"testing"

	"repro/internal/scenario"
)

// TestFastChannelFlagBound: -fast-channel is part of the shared flag
// surface both binaries bind.
func TestFastChannelFlagBound(t *testing.T) {
	o := DefaultOptions()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Bind(fs)
	if err := fs.Parse([]string{"-fast-channel"}); err != nil {
		t.Fatal(err)
	}
	if !o.FastChannel {
		t.Fatal("-fast-channel did not set Options.FastChannel")
	}
}

// TestBatchAppliesChannelMode: every unit a Batch builds inherits the
// run's channel mode, the mode lands in the digested config (so
// exact-mode stored results never satisfy fast-mode sweeps), and a config
// that requested fast mode itself keeps it regardless of the run flag.
func TestBatchAppliesChannelMode(t *testing.T) {
	run := func(fast bool, cfgFast bool) scenario.TestbedConfig {
		r := newTestRunner(t, 1)
		r.opts.FastChannel = fast
		c := &Context{runner: r, rec: &ExperimentRecord{}}
		b := c.Batch()
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 1
		cfg.FastChannel = cfgFast
		var res *scenario.TestbedResult
		Add(b, "mode", cfg, &res)
		if err := b.Go(); err != nil {
			t.Fatal(err)
		}
		return res.Config
	}
	if got := run(true, false); !got.FastChannel {
		t.Error("run-level fast mode did not reach the unit config")
	}
	if got := run(false, true); !got.FastChannel {
		t.Error("config-level fast mode lost")
	}
	if got := run(false, false); got.FastChannel {
		t.Error("exact run unexpectedly fast")
	}
	exact, fast := run(false, false), run(true, false)
	if scenario.ConfigDigest(exact) == scenario.ConfigDigest(fast) {
		t.Error("exact and fast unit configs share a result-store digest")
	}
}
