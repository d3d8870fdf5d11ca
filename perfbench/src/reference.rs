//! A yardstick that shares no code with the workspace: a hash join written
//! against the standard library only, over data fixed once for every seed.
//!
//! Dividing a measured time by a reference time taken moments before or
//! after it cancels the machine's changes of speed (they hit both sides
//! alike) but keeps every regression in the workspace, including one in a
//! layer that Free Join and the baselines share, or one that slows the whole
//! system uniformly.

use crate::data::Rng;
use std::collections::HashMap;

/// Build-side rows.
const BUILD_ROWS: usize = 20_000;
/// Probe-side rows.
const PROBE_ROWS: usize = 60_000;
/// Key domain: about a quarter of the probes find a match.
const KEYS: u64 = 60_000;

/// The reference join's inputs and its answer.
#[derive(Debug)]
pub struct Reference {
    build: Vec<u64>,
    probe: Vec<u64>,
    expected: u64,
}

impl Reference {
    /// The fixed inputs, with the answer computed by a sort and binary
    /// searches (another method than the one timed).
    pub fn new() -> Self {
        let mut rng = Rng::new(0x7e7e_7e7e);
        let build: Vec<u64> = (0..BUILD_ROWS).map(|_| rng.below(KEYS)).collect();
        let probe: Vec<u64> = (0..PROBE_ROWS).map(|_| rng.below(KEYS)).collect();
        let mut sorted = build.clone();
        sorted.sort_unstable();
        let expected = probe
            .iter()
            .map(|k| {
                (sorted.partition_point(|x| x <= k) - sorted.partition_point(|x| x < k)) as u64
            })
            .sum();
        Reference { build, probe, expected }
    }

    /// The join's expected output count.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Run the join once: its output count.
    pub fn run(&self) -> u64 {
        let mut table: HashMap<u64, u64> = HashMap::with_capacity(self.build.len());
        for &k in &self.build {
            *table.entry(k).or_default() += 1;
        }
        let count = self.probe.iter().filter_map(|k| table.get(k)).sum::<u64>();
        std::hint::black_box(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hash_join_agrees_with_the_sorted_count() {
        let r = Reference::new();
        assert!(r.expected() > 0);
        assert_eq!(r.run(), r.expected());
        assert_eq!(Reference::new().expected(), r.expected());
    }
}
