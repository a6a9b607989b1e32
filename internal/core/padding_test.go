package core

import (
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// Padding law (ROADMAP item 12): functions that are never invoked change
// nothing for the ones that are. 140 never-invoked slots interleaved among
// 60 invoked ones move every shard boundary, yet at every shard count the
// invoked slots' decisions, the peak minutes and the downgrade count match
// the unpadded controller's bit for bit, and no padding slot ever holds a
// variant. The invoked slots keep their relative order, so the lowest-slot
// tie rule orders them as before.
func TestPaddingWithNeverInvokedFunctions(t *testing.T) {
	const invoked, padded = 60, 200
	cat := models.PaperCatalog()
	var archetypes []trace.Archetype
	for len(archetypes) < invoked {
		archetypes = append(archetypes, trace.AzureLikeArchetypes()...)
	}
	asg := uniformAssignment(cat, invoked)
	// slot[i] is invoked function i's slot in the padded population; slot 0
	// and the last slot are padding.
	slot := make([]int, invoked)
	padAsg := uniformAssignment(cat, padded)
	isPad := make([]bool, padded)
	for fn := range isPad {
		isPad[fn] = true
	}
	for i := range slot {
		slot[i] = 1 + i*(padded-2)/invoked
		padAsg[slot[i]], isPad[slot[i]] = asg[i], false
	}
	for _, seed := range []int64{1, 2, 3} {
		tr, err := trace.Generate(trace.GeneratorConfig{Seed: seed, Horizon: trace.MinutesPerDay, Archetypes: archetypes[:invoked]})
		if err != nil {
			t.Fatal(err)
		}
		base, err := New(Config{Catalog: cat, Assignment: asg, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		var pads []*Pulse
		for _, shards := range []int{1, 2, 4} {
			p, err := New(Config{Catalog: cat, Assignment: padAsg, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			pads = append(pads, p)
		}
		counts, padCounts := make([]int, invoked), make([]int, padded)
		for m := 0; m < tr.Horizon; m++ {
			want := base.KeepAlive(m)
			for _, p := range pads {
				got := p.KeepAlive(m)
				for i, s := range slot {
					if got[s] != want[i] {
						t.Fatalf("seed %d shards %d minute %d: function %d (slot %d) holds %d, unpadded %d", seed, p.Shards(), m, i, s, got[s], want[i])
					}
				}
				for fn, v := range got {
					if isPad[fn] && v != cluster.NoVariant {
						t.Fatalf("seed %d shards %d minute %d: padding slot %d holds variant %d", seed, p.Shards(), m, fn, v)
					}
				}
			}
			for i, f := range tr.Functions {
				counts[i] = f.Counts[m]
				padCounts[slot[i]] = f.Counts[m]
			}
			base.RecordInvocations(m, counts)
			for _, p := range pads {
				p.RecordInvocations(m, padCounts)
			}
		}
		if base.PeakMinutes() == 0 || base.TotalDowngrades() == 0 {
			t.Fatalf("seed %d: %d peak minutes and %d downgrades; the law needs both", seed, base.PeakMinutes(), base.TotalDowngrades())
		}
		for _, p := range pads {
			if p.PeakMinutes() != base.PeakMinutes() || p.TotalDowngrades() != base.TotalDowngrades() {
				t.Errorf("seed %d shards %d: %d peak minutes and %d downgrades, unpadded %d and %d",
					seed, p.Shards(), p.PeakMinutes(), p.TotalDowngrades(), base.PeakMinutes(), base.TotalDowngrades())
			}
		}
		t.Logf("seed %d: %d peak minutes, %d downgrades", seed, base.PeakMinutes(), base.TotalDowngrades())
	}
}
