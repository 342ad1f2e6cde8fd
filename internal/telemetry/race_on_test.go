//go:build race

package telemetry

// raceEnabled reports that this test binary was built with -race, which
// randomly drops sync.Pool items; allocation pins that rely on a warm pool
// relax to a ceiling that still rules out per-record allocation.
const raceEnabled = true
