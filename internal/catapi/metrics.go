package catapi

import "wwb/internal/metrics"

// Process-wide mirrors of the resilient client's counters, exposed on
// wwbserve's /metrics. They are written alongside the per-client
// atomics (ClientStats stays the per-instance view; these aggregate
// across every client in the process) and never read back by the
// lookup path, so instrumentation cannot perturb label outcomes.
var (
	mLookups = metrics.Default.Counter(
		"catapi_lookups_total",
		"Domain resolutions performed.")
	mAttempts = metrics.Default.Counter(
		"catapi_attempts_total",
		"Transport calls issued, including retries.")
	mRetries = metrics.Default.Counter(
		"catapi_retries_total",
		"Attempts beyond each lookup's first.")
	mDegraded = metrics.Default.Counter(
		"catapi_degraded_total",
		"Lookups that exhausted their budget and fell back to Uncategorized.")
	mTransportPanics = metrics.Default.Counter(
		"catapi_transport_panics_total",
		"Transport panics recovered into retryable errors.")
	mSleepSeconds = metrics.Default.FloatCounter(
		"catapi_sleep_seconds_total",
		"Logical backoff sleep scheduled across retries (jittered).")
)
