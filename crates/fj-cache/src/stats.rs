//! Cache observability: atomic counters and their public snapshots.
//!
//! [`CacheStats`] is one cache's point-in-time snapshot; [`StatsSnapshot`]
//! pairs the trie and plan caches' snapshots with the session's scheduler
//! and adaptive-execution counters. Both are plain `Copy` data — no
//! atomics, no locks — so they can be held across passes and diffed with
//! `delta`. [`StatsSnapshot::register_into`] publishes them into an
//! [`fj_obs::MetricsRegistry`], which is the only exposition format.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time snapshot of a cache's counters and gauges — the public
/// stats API consulted by sessions, benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that ran the builder (the entry was absent).
    pub misses: u64,
    /// Lookups that found another thread's build in flight and waited for it
    /// instead of building a second copy (single-flight coalescing).
    pub coalesced: u64,
    /// Entries inserted after a successful build.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Total bytes (as charged at insert time) of evicted entries.
    pub bytes_evicted: u64,
    /// Built values too large for a shard's budget: returned to the caller
    /// but never retained, so the budget invariant holds.
    pub uncacheable: u64,
    /// Entries removed by explicit invalidation (`retain`/`purge`).
    pub invalidated: u64,
    /// Bytes currently charged against the budget (gauge).
    pub resident_bytes: u64,
    /// Entries currently resident (gauge).
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups (hits + coalesced + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.coalesced + self.misses
    }

    /// Fraction of lookups that did not build: `(hits + coalesced) /
    /// lookups`, or 0.0 with no lookups. A warm serving workload should sit
    /// near 1.0.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / lookups as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot (gauges are taken
    /// from `self`), for per-request attribution: `after.delta(&before)`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            bytes_evicted: self.bytes_evicted - earlier.bytes_evicted,
            uncacheable: self.uncacheable - earlier.uncacheable,
            invalidated: self.invalidated - earlier.invalidated,
            resident_bytes: self.resident_bytes,
            entries: self.entries,
        }
    }

    /// Field (name, value) pairs — the single source of truth for the
    /// registry series names.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
            ("inserts", self.inserts),
            ("evictions", self.evictions),
            ("bytes_evicted", self.bytes_evicted),
            ("uncacheable", self.uncacheable),
            ("invalidated", self.invalidated),
            ("resident_bytes", self.resident_bytes),
            ("entries", self.entries),
        ]
    }
}

/// Work-stealing scheduler counters accumulated across a session's query
/// executions: how many tasks the parallel executor spawned, and how many
/// were stolen by a worker other than their spawner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduler tasks spawned (root range tasks plus split sub-ranges).
    pub tasks_spawned: u64,
    /// Tasks executed by a worker other than the one that spawned them.
    pub tasks_stolen: u64,
}

impl SchedStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta(&self, earlier: &SchedStats) -> SchedStats {
        SchedStats {
            tasks_spawned: self.tasks_spawned - earlier.tasks_spawned,
            tasks_stolen: self.tasks_stolen - earlier.tasks_stolen,
        }
    }

    /// Field (name, value) pairs (registry series names).
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [("tasks_spawned", self.tasks_spawned), ("tasks_stolen", self.tasks_stolen)]
    }
}

/// Adaptive-execution counters accumulated across a session's query
/// executions: per-binding probe reorders performed by the adaptive
/// executor, and plan nodes whose profiled actuals bust their prepare-time
/// estimate (see `fj_obs::ESTIMATE_BUST_FACTOR`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecTotals {
    /// Bindings/batches whose adaptive probe order differed from the static
    /// plan order (zero unless adaptive execution is enabled).
    pub reorders: u64,
    /// Plan nodes whose profiled actual rows exceeded the bust factor times
    /// their cached estimate (bumped by profiled executions).
    pub estimate_busts: u64,
}

impl ExecTotals {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta(&self, earlier: &ExecTotals) -> ExecTotals {
        ExecTotals {
            reorders: self.reorders - earlier.reorders,
            estimate_busts: self.estimate_busts - earlier.estimate_busts,
        }
    }

    /// Field (name, value) pairs (registry series names).
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [("reorders", self.reorders), ("estimate_busts", self.estimate_busts)]
    }
}

/// The combined snapshot of a serving process's cache pair — the trie cache
/// and the plan cache — plus the session's scheduler and adaptive-execution
/// counters, as one plain, copyable struct. This is what `free-join`'s
/// `Session::cache_stats` returns and what `fj-serve` folds into
/// `Server::stats` and publishes into its metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Trie cache counters/gauges.
    pub tries: CacheStats,
    /// Plan cache counters/gauges (`resident_bytes` counts entries).
    pub plans: CacheStats,
    /// Work-stealing scheduler counters (spawned / stolen tasks).
    pub sched: SchedStats,
    /// Adaptive-execution counters (probe reorders / estimate busts).
    pub exec: ExecTotals,
}

impl StatsSnapshot {
    /// Counter-wise difference against an earlier snapshot (gauges from
    /// `self`): `after.delta(&before)`.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            tries: self.tries.delta(&earlier.tries),
            plans: self.plans.delta(&earlier.plans),
            sched: self.sched.delta(&earlier.sched),
            exec: self.exec.delta(&earlier.exec),
        }
    }

    /// Publish every counter and gauge into `registry` under the
    /// workspace-wide `fj_<subsystem>_<metric>` naming scheme
    /// (`fj_cache_<cache>_<field>`, `fj_sched_<field>`, `fj_exec_<field>`).
    /// Serving front-ends call this to merge the cache snapshot into their
    /// process registry so one exposition carries every subsystem.
    pub fn register_into(&self, registry: &fj_obs::MetricsRegistry) {
        for (cache, stats) in [("trie", &self.tries), ("plan", &self.plans)] {
            for (name, value) in stats.fields() {
                registry.set_gauge(&format!("fj_cache_{cache}_{name}"), value);
            }
        }
        for (name, value) in self.sched.fields() {
            registry.set_gauge(&format!("fj_sched_{name}"), value);
        }
        for (name, value) in self.exec.fields() {
            registry.set_gauge(&format!("fj_exec_{name}"), value);
        }
    }
}

/// The live counters, shared across shards and updated lock-free. Gauges
/// (resident bytes, entry count) live on the shards themselves and are
/// folded in when a snapshot is taken.
#[derive(Debug, Default)]
pub(crate) struct LiveStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub inserts: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_evicted: AtomicU64,
    pub uncacheable: AtomicU64,
    pub invalidated: AtomicU64,
}

impl LiveStats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters; the caller fills in the gauges.
    pub fn snapshot(&self, resident_bytes: u64, entries: u64) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_lookups() {
        let s = CacheStats { hits: 6, coalesced: 2, misses: 2, ..CacheStats::default() };
        assert_eq!(s.lookups(), 10);
        assert!((s.hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let before = CacheStats { hits: 5, misses: 3, resident_bytes: 100, ..Default::default() };
        let after = CacheStats {
            hits: 9,
            misses: 4,
            resident_bytes: 250,
            entries: 2,
            ..Default::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 1);
        assert_eq!(d.resident_bytes, 250, "gauges come from the later snapshot");
        assert_eq!(d.entries, 2);
    }

    #[test]
    fn snapshot_delta_and_metrics_text() {
        let before = StatsSnapshot {
            tries: CacheStats { hits: 5, misses: 2, ..Default::default() },
            plans: CacheStats { hits: 1, ..Default::default() },
            sched: SchedStats { tasks_spawned: 10, tasks_stolen: 2 },
            exec: ExecTotals { reorders: 3, estimate_busts: 1 },
        };
        let after = StatsSnapshot {
            tries: CacheStats { hits: 9, misses: 2, resident_bytes: 64, ..Default::default() },
            plans: CacheStats { hits: 4, ..Default::default() },
            sched: SchedStats { tasks_spawned: 40, tasks_stolen: 5 },
            exec: ExecTotals { reorders: 9, estimate_busts: 2 },
        };
        let d = after.delta(&before);
        assert_eq!(d.tries.hits, 4);
        assert_eq!(d.plans.hits, 3);
        assert_eq!(d.tries.resident_bytes, 64, "gauges come from the later snapshot");
        assert_eq!(d.sched, SchedStats { tasks_spawned: 30, tasks_stolen: 3 });
        assert_eq!(d.exec, ExecTotals { reorders: 6, estimate_busts: 1 });
        let registry = fj_obs::MetricsRegistry::new();
        after.register_into(&registry);
        let text = registry.render();
        assert!(text.contains("fj_cache_trie_hits 9\n"));
        assert!(text.contains("fj_cache_plan_hits 4\n"));
        assert!(text.contains("fj_sched_tasks_spawned 40\n"));
        assert!(text.contains("fj_sched_tasks_stolen 5\n"));
        assert!(text.contains("fj_exec_reorders 9\n"));
        assert!(text.contains("fj_exec_estimate_busts 2\n"));
        assert_eq!(text.lines().count(), 24);
    }

    #[test]
    fn live_stats_snapshot() {
        let live = LiveStats::default();
        LiveStats::bump(&live.hits);
        LiveStats::bump(&live.hits);
        LiveStats::add(&live.bytes_evicted, 64);
        let s = live.snapshot(10, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.bytes_evicted, 64);
        assert_eq!(s.resident_bytes, 10);
        assert_eq!(s.entries, 1);
    }
}
