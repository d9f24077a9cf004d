//! Set-associative LRU cache simulator.
//!
//! Used to reproduce the paper's Fig. 6 microarchitectural characterization
//! (LLC hit rate and memory-bandwidth utilization of the three key ops).
//! The simulator is a classic trace-driven model: 64-byte lines, true-LRU
//! replacement per set.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The PoC's last-level cache: Xeon Gold 6242 has a 22 MiB shared LLC;
    /// one preprocessing worker effectively owns a slice plus neighborhood,
    /// modeled as 16 MiB, 11-way.
    #[must_use]
    pub fn xeon_llc() -> Self {
        CacheConfig { capacity_bytes: 16 << 20, ways: 11, line_bytes: 64 }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Trace-driven set-associative LRU cache with an optional prefetch port.
///
/// Demand accesses ([`CacheSim::access`]) update hit/miss statistics;
/// prefetches ([`CacheSim::prefetch`]) install lines without counting as
/// accesses. Both count *fills* — lines brought in from memory — which is
/// what memory-bandwidth utilization is derived from.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// `tags[set]` holds up to `ways` tags in LRU order (front = MRU).
    tags: Vec<Vec<u64>>,
    accesses: u64,
    misses: u64,
    fills: u64,
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (zero ways or non-power-
    /// of-two line size).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes >= 8,
            "line size must be a power of two >= 8"
        );
        let sets = config.sets();
        CacheSim { config, tags: vec![Vec::new(); sets], accesses: 0, misses: 0, fills: 0 }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn locate(&mut self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.tags.len() as u64) as usize;
        let tag = line / self.tags.len() as u64;
        (set, tag)
    }

    fn install(&mut self, set: usize, tag: u64) {
        let ways_limit = self.config.ways;
        let ways = &mut self.tags[set];
        ways.insert(0, tag);
        if ways.len() > ways_limit {
            ways.pop();
        }
    }

    /// Simulates one demand access to `addr`; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (set, tag) = self.locate(addr);
        if let Some(pos) = self.tags[set].iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = self.tags[set].remove(pos);
            self.tags[set].insert(0, t);
            true
        } else {
            self.misses += 1;
            self.fills += 1;
            self.install(set, tag);
            false
        }
    }

    /// Prefetches `addr`'s line: installs it (counting a fill) if absent,
    /// without touching demand statistics. Returns true if a fill occurred.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        if self.tags[set].contains(&tag) {
            false
        } else {
            self.fills += 1;
            self.install(set, tag);
            true
        }
    }

    /// Total demand accesses so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total demand misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total line fills from memory (demand misses + prefetch fills).
    #[must_use]
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }

    /// Bytes fetched from memory including prefetch fills.
    #[must_use]
    pub fn fill_traffic_bytes(&self) -> u64 {
        self.fills * self.config.line_bytes as u64
    }

    /// Resets the statistics but keeps cache contents (for warm measurement).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
        self.fills = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 4 sets × 2 ways × 64 B = 512 B.
        CacheSim::new(CacheConfig { capacity_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256).
        c.access(0);
        c.access(256);
        c.access(0); // refresh line 0
        c.access(512); // evicts 256, not 0
        assert!(c.access(0), "line 0 must have survived");
        assert!(!c.access(256), "line 256 must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = CacheSim::new(CacheConfig::xeon_llc());
        let ws = 1 << 20; // 1 MiB working set in a 16 MiB cache
        for pass in 0..3 {
            if pass == 1 {
                c.reset_stats();
            }
            for addr in (0..ws).step_by(64) {
                c.access(addr);
            }
        }
        assert!(c.hit_rate() > 0.99, "warm hit rate {}", c.hit_rate());
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = CacheSim::new(CacheConfig::xeon_llc());
        for addr in (0..(64u64 << 20)).step_by(64) {
            c.access(addr);
        }
        assert!(c.hit_rate() < 0.01, "streaming hit rate {}", c.hit_rate());
    }

    #[test]
    fn sets_computation() {
        assert_eq!(CacheConfig { capacity_bytes: 512, ways: 2, line_bytes: 64 }.sets(), 4);
        assert_eq!(CacheConfig::xeon_llc().sets(), (16 << 20) / 64 / 11);
    }

    #[test]
    fn prefetch_installs_without_counting_access() {
        let mut c = tiny();
        assert!(c.prefetch(0));
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.fills(), 1);
        assert!(c.access(0), "prefetched line must hit");
        assert_eq!(c.misses(), 0);
        // Prefetch of a resident line does not fill again.
        assert!(!c.prefetch(0));
        assert_eq!(c.fills(), 1);
    }

    #[test]
    fn fills_count_demand_misses_and_prefetches() {
        let mut c = tiny();
        c.access(0); // demand miss -> fill
        c.prefetch(64); // prefetch fill
        assert_eq!(c.fills(), 2);
        assert_eq!(c.fill_traffic_bytes(), 128);
        c.reset_stats();
        assert_eq!(c.fills(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = CacheSim::new(CacheConfig { capacity_bytes: 512, ways: 0, line_bytes: 64 });
    }
}
