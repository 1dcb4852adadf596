package main

import "time"

// The benchmark's fixed parameters.  perfbench/baseline.json gives the
// reason for each value, and says which are assumptions rather than
// measurements of real traffic.
const (
	// defaultSeed is used when --seed is not given.
	defaultSeed = 1

	// trainPages is how many result pages each testbed wrapper is
	// induced from, as in the paper.
	trainPages = 5

	// conns is the load generator's keep-alive connection count: the
	// nproc of the 2-vCPU host the benchmark was sized on.
	conns = 2
	// setupReps is how many times a run sets the server up; setup_s is
	// the median.
	setupReps = 9
	// rounds interleaves the measured phases: each round runs its share of
	// the open loop, the closed loop and the builds, so that every metric
	// samples the whole run rather than one stretch of it.
	rounds = 10

	// The open loop's offered rate, in requests per second, and the share
	// of its requests that are /extract/batch calls and their size.
	ratePerS   = 400
	batchShare = 0.5
	batchSize  = 3
	// openShare and closedShare split --seconds between the open and the
	// closed loop; the rest goes to set-up and builds.
	openShare   = 0.3
	closedShare = 0.2
	// spinWindow is how long before a request's due time the generator
	// stops sleeping and polls the clock, so that the send is not late by
	// a timer wake-up from an idle CPU.
	spinWindow = time.Millisecond
	// lagP99MaxMs bounds how late the open-loop generator may send.
	lagP99MaxMs = 20

	// The build phase: buildEngines fresh engines a round, each induced
	// from buildSamplePages pages, built buildReps times (the fastest
	// counts) and scored on buildHoldoutPages more.  The traced run
	// decomposes traceBuildEngines of them.
	buildSeedBase     = 7_000_000
	buildEngines      = 150
	buildReps         = 3
	buildSamplePages  = 5
	buildHoldoutPages = 2
	traceBuildEngines = 300
)

// workloadSpec is what differs between the serve workloads.
type workloadSpec struct {
	// warmPages is how many pages a closed loop sends, unmeasured, before
	// the first round, so that the rounds see a filled cache and warm
	// pools rather than a trend from cold to warm.
	warmPages int
	// closedPagesPerS sizes the closed loop at the seed's capacity, so
	// that it holds a fixed amount of work.
	closedPagesPerS float64
	// cacheBytes is mse-serve's -cache-bytes.
	cacheBytes int64
	// workingSet > 0 draws pages Zipf(zipfS)-skewed from that many
	// distinct pages; 0 makes every page fresh.
	workingSet int
	zipfS      float64
	// hitRatioBand is the server's excache hit ratio a valid run lands in.
	hitRatioBand [2]float64
	// replayRequests is how many of the open-loop requests the traced run
	// replays in-process.
	replayRequests int
}

var workloads = map[string]workloadSpec{
	"serve-miss": {
		warmPages:       1500,
		closedPagesPerS: 4500,
		cacheBytes:      16 << 20,
		hitRatioBand:    [2]float64{0, 0.01},
		replayRequests:  1500,
	},
	"serve-repeat": {
		warmPages:       6000,
		closedPagesPerS: 8000,
		cacheBytes:      4 << 20,
		workingSet:      4000,
		zipfS:           1.1,
		hitRatioBand:    [2]float64{0.5, 0.95},
		replayRequests:  3000,
	},
}

func openDur(seconds float64) time.Duration {
	return time.Duration(openShare * seconds * float64(time.Second))
}
