//! Server observability: counters and a latency histogram, all handles
//! into the server's [`fj_obs::MetricsRegistry`].
//!
//! [`ServerMetrics::registered`] registers every series under the
//! workspace-wide `fj_<subsystem>_<metric>` scheme (`fj_serve_<metric>`),
//! so the `Metrics` wire frame — the registry's text exposition — and the
//! in-process [`ServerStats`] snapshot read the same atomics.
//!
//! Service time is the `fj_serve_latency_us` histogram. Its buckets are
//! log-linear (one per value below 4 µs, then 4 sub-buckets per power of
//! two up to ~2^40 µs ≈ 12.7 days, like a 2-significant-bit HDR
//! histogram): recording is a short binary search plus relaxed atomic
//! increments, memory is fixed regardless of traffic, and any quantile is
//! reproducible from the exposed cumulative buckets with ≤ 25% relative
//! error. Slower observations land in the `+Inf` bucket.

use fj_cache::StatsSnapshot;
use fj_obs::{Counter, Histogram, MetricsRegistry};

/// Inclusive upper bounds of the latency buckets, microseconds: `0..=3`,
/// then `(k << o) - 1` for the 4 sub-buckets `k` in `5..=8` of each octave
/// `o` in `0..38` (156 bounds, the last `2^40 - 1`).
fn latency_bounds() -> Vec<u64> {
    let linear = 0..4;
    let log_linear = (0..38).flat_map(|o| (5..9).map(move |k| (k << o) - 1));
    linear.chain(log_linear).collect()
}

/// The server's live counters, updated lock-free by the acceptor and the
/// worker threads. Each field is a handle into the server's
/// [`MetricsRegistry`] ([`ServerMetrics::registered`]).
#[derive(Debug)]
pub struct ServerMetrics {
    /// Connections accepted and admitted to the pending queue
    /// (`fj_serve_accepted_connections`).
    pub accepted: Counter,
    /// Connections shed at the acceptor because the queue was full
    /// (`fj_serve_rejected_queue_full`).
    pub rejected_queue: Counter,
    /// Requests shed because the in-flight byte budget was exhausted
    /// (`fj_serve_rejected_byte_budget`).
    pub rejected_bytes: Counter,
    /// Requests served to completion, success or typed error response
    /// (`fj_serve_requests_served`).
    pub served: Counter,
    /// Requests answered with [`crate::protocol::Response::Error`]
    /// (`fj_serve_request_errors`).
    pub errors: Counter,
    /// Queries whose execution exceeded the slow-query threshold
    /// (`fj_serve_slow_queries_total`).
    pub slow_queries: Counter,
    /// Requests shed by the per-client token bucket
    /// (`fj_serve_rejected_rate_limited`).
    pub rate_limited: Counter,
    /// Executions stopped by a per-request or server deadline
    /// (`fj_serve_deadline_exceeded_total`).
    pub deadline_exceeded: Counter,
    /// Executions stopped by an explicit `Cancel` frame or a memory budget
    /// (`fj_serve_cancellations_total`).
    pub cancellations: Counter,
    /// Request handlers that panicked and were isolated by the worker's
    /// `catch_unwind` (`fj_serve_panics_total`); the worker and its
    /// connection both survive.
    pub panics: Counter,
    /// Service time (read-to-response) per served request, microseconds
    /// (`fj_serve_latency_us`).
    pub latency: Histogram,
}

impl ServerMetrics {
    /// Counters and the latency histogram registered into `registry` under
    /// the `fj_serve_*` names, so the registry's exposition carries them.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            accepted: registry.counter("fj_serve_accepted_connections"),
            rejected_queue: registry.counter("fj_serve_rejected_queue_full"),
            rejected_bytes: registry.counter("fj_serve_rejected_byte_budget"),
            served: registry.counter("fj_serve_requests_served"),
            errors: registry.counter("fj_serve_request_errors"),
            slow_queries: registry.counter("fj_serve_slow_queries_total"),
            rate_limited: registry.counter("fj_serve_rejected_rate_limited"),
            deadline_exceeded: registry.counter("fj_serve_deadline_exceeded_total"),
            cancellations: registry.counter("fj_serve_cancellations_total"),
            panics: registry.counter("fj_serve_panics_total"),
            latency: registry.histogram("fj_serve_latency_us", &latency_bounds()),
        }
    }

    /// Point-in-time snapshot, folding in the cache pair's snapshot.
    pub fn snapshot(&self, cache: StatsSnapshot) -> ServerStats {
        ServerStats {
            cache,
            accepted: self.accepted.get(),
            rejected_queue: self.rejected_queue.get(),
            rejected_bytes: self.rejected_bytes.get(),
            served: self.served.get(),
            errors: self.errors.get(),
            observations: self.latency.count(),
            p50_us: self.latency.quantile(0.50),
            p99_us: self.latency.quantile(0.99),
        }
    }
}

/// A point-in-time snapshot for in-process readers ([`crate::Server::stats`]):
/// the cache pair's [`StatsSnapshot`] plus the server's own counters and
/// latency quantiles, as plain `Copy` data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Trie + plan cache snapshot.
    pub cache: StatsSnapshot,
    /// Connections accepted and admitted.
    pub accepted: u64,
    /// Connections shed at the acceptor (queue full).
    pub rejected_queue: u64,
    /// Requests shed by the in-flight byte budget.
    pub rejected_bytes: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Latency observations behind the quantiles.
    pub observations: u64,
    /// Median service time, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile service time, microseconds (bucket upper bound).
    pub p99_us: u64,
}

impl ServerStats {
    /// Total requests shed (both admission axes).
    pub fn rejected(&self) -> u64 {
        self.rejected_queue + self.rejected_bytes
    }

    /// Counter-wise difference against an earlier snapshot (quantiles and
    /// gauges are taken from `self` — quantiles are cumulative-histogram
    /// readouts, not windowed).
    pub fn delta(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            cache: self.cache.delta(&earlier.cache),
            accepted: self.accepted - earlier.accepted,
            rejected_queue: self.rejected_queue - earlier.rejected_queue,
            rejected_bytes: self.rejected_bytes - earlier.rejected_bytes,
            served: self.served - earlier.served,
            errors: self.errors - earlier.errors,
            observations: self.observations - earlier.observations,
            p50_us: self.p50_us,
            p99_us: self.p99_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The latency histogram as the server registers it.
    fn latency_histogram() -> Histogram {
        ServerMetrics::registered(&MetricsRegistry::new()).latency
    }

    #[test]
    fn registered_bounds_match_the_log_linear_layout() {
        // Independent oracle: the bucket layout's closed form per index.
        let upper_bound = |bucket: u64| -> u64 {
            if bucket < 4 {
                return bucket;
            }
            let (octave, sub) = ((bucket - 4) / 4 + 2, (bucket - 4) % 4);
            ((4 + sub + 1) << (octave - 2)) - 1
        };
        let expected: Vec<u64> = (0..156).map(upper_bound).collect();
        assert_eq!(latency_bounds(), expected);
        assert_eq!(*expected.last().unwrap(), 1_099_511_627_775);

        let registry = MetricsRegistry::new();
        ServerMetrics::registered(&registry);
        let rendered: Vec<u64> = registry
            .render()
            .lines()
            .filter_map(|l| l.strip_prefix("fj_serve_latency_us_bucket{le=\""))
            .filter_map(|l| l.split('"').next()?.parse().ok())
            .collect();
        assert_eq!(rendered, expected, "the registry exposes exactly these bounds");
    }

    #[test]
    fn quantiles_are_exact_bucket_upper_bounds() {
        let h = latency_histogram();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for us in 1..=1000u64 {
            h.observe(us);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.50), 511);
        assert_eq!(h.quantile(0.99), 1023);
        assert!(h.quantile(1.0) >= h.quantile(0.99));
    }

    #[test]
    fn extreme_values_saturate_into_the_top_bound() {
        let h = latency_histogram();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), 1_099_511_627_775);
    }

    #[test]
    fn registered_series_feed_the_registry() {
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::registered(&registry);
        metrics.accepted.inc();
        metrics.served.add(3);
        metrics.slow_queries.inc();
        for us in [1u64, 1, 10, 5000] {
            metrics.latency.observe(us);
        }
        let text = registry.render();
        assert!(text.contains("fj_serve_accepted_connections 1\n"), "{text}");
        assert!(text.contains("fj_serve_requests_served 3\n"), "{text}");
        assert!(text.contains("fj_serve_slow_queries_total 1\n"), "{text}");
        assert!(text.contains("fj_serve_latency_us_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("fj_serve_latency_us_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("fj_serve_latency_us_sum 5012\n"), "{text}");
        assert!(text.contains("fj_serve_latency_us_count 4\n"), "{text}");
    }

    #[test]
    fn server_stats_snapshot_and_delta() {
        let metrics = ServerMetrics::registered(&MetricsRegistry::new());
        metrics.accepted.add(5);
        metrics.served.add(17);
        for us in [10u64, 20, 30, 40_000] {
            metrics.latency.observe(us);
        }
        let snap = metrics.snapshot(StatsSnapshot::default());
        assert_eq!(snap.accepted, 5);
        assert_eq!(snap.observations, 4);
        assert_eq!(snap.p50_us, 23);
        assert_eq!(snap.p99_us, 40_959);

        let later = ServerStats { served: 20, accepted: 9, ..snap };
        let d = later.delta(&snap);
        assert_eq!(d.served, 3);
        assert_eq!(d.accepted, 4);
    }
}
