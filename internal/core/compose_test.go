package core

import (
	"strings"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
)

// composeFeature is one optional engine feature for the pairwise
// composition test: word is how a Train rejection names it, syncOnly
// marks the features the asynchronous engine cannot run.
type composeFeature struct {
	name     string
	word     string
	syncOnly bool
	mut      func(*Config)
}

func composeFeatures() []composeFeature {
	// Each schedule lands inside a 2-iteration run: the joiner enters
	// and worker1 retires at the start of iteration 2, and with 32
	// samples per shard at batch 16 the swap fires at iteration 2.
	join := func(c *Config) {
		c.JoinAt = map[int][]*dataset.Dataset{2: {dataset.GaussianRing(32, 8, 2.0, 0.05, 479)}}
	}
	return []composeFeature{
		{"Pipeline", "Pipeline", true, func(c *Config) { c.Pipeline = true }},
		{"Async", "synchronous", false, func(c *Config) { c.Async = true }},
		{"tree:2", "tree:2", true, func(c *Config) { c.Topology = cluster.Tree{Depth: 2} }},
		{"AggMedian", "median", false, func(c *Config) { c.Aggregate = AggMedian }},
		{"AggTrimmedMean", "trimmed", false, func(c *Config) { c.Aggregate = AggTrimmedMean }},
		{"Defense", "defense", true, func(c *Config) { c.Defense = DefenseConfig{Enabled: true} }},
		{"JoinAt", "join", true, join},
		{"JoinWarmup", "join", true, func(c *Config) { join(c); c.JoinWarmup = 2 }},
		{"Lifetimes", "lifetimes", true, func(c *Config) {
			c.Lifetimes = map[int]cluster.Lifetime{1: {Retire: 2}}
		}},
		{"SwapSched", "swap schedule", true, func(c *Config) { c.SwapSched = ShuffleSwap{} }},
		{"RoundTimeout", "timeout", false, func(c *Config) { c.RoundTimeout = 5 * time.Second }},
	}
}

// TestFeaturePairsComposeOrAreRejected walks every pair of optional
// engine features. Each pair either trains its 2 iterations, or — only
// the asynchronous engine combined with a synchronous-only feature —
// is rejected by Train with an error naming both sides of the conflict.
func TestFeaturePairsComposeOrAreRejected(t *testing.T) {
	fs := composeFeatures()
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			a, b := fs[i], fs[j]
			t.Run(a.name+"+"+b.name, func(t *testing.T) {
				cfg := baseConfig()
				cfg.Iters = 2
				a.mut(&cfg)
				b.mut(&cfg)
				res, err := Train(ringShards(4, 32, 467), gan.RingMLP(), cfg, nil)
				conflict := (a.name == "Async" && b.syncOnly) || (b.name == "Async" && a.syncOnly)
				if conflict {
					if err == nil {
						t.Fatalf("%s + %s accepted, want a validation error", a.name, b.name)
					}
					for _, w := range []string{a.word, b.word} {
						if !strings.Contains(err.Error(), w) {
							t.Fatalf("rejection %q does not name %q", err, w)
						}
					}
					return
				}
				if err != nil {
					t.Fatalf("%s + %s rejected: %v", a.name, b.name, err)
				}
				if res.Iters != cfg.Iters {
					t.Fatalf("%s + %s applied %d updates, want %d", a.name, b.name, res.Iters, cfg.Iters)
				}
			})
		}
	}
}
