package fleet

import (
	"wwb/internal/chrome"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Shared read-only fixtures: one small world, assembled once, with two
// months so the (country, month) partition varies along both axes.
// TopN is kept shallow so every shard's boot-time crux export and the
// equivalence diffs run fast.
var (
	fleetWorld = world.Generate(world.SmallConfig())
	fleetOpts  = chrome.Options{
		PrivacyThreshold: 50,
		TopN:             200,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Jan2022, world.Feb2022},
	}
	fleetDS = chrome.Assemble(fleetWorld, telemetry.DefaultConfig(), fleetOpts)
)
