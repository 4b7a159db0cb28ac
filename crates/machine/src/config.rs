//! Machine configuration.

use limitless_cache::CacheConfig;
use limitless_core::{CheckLevel, HandlerImpl, ProtocolSpec};
use limitless_net::NetConfig;

/// Processor-side timing parameters (cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcTiming {
    /// Cache hit.
    pub hit: u64,
    /// Extra penalty for a victim-cache hit (swap back).
    pub victim_hit: u64,
    /// Installing an arrived block into the cache.
    pub fill: u64,
    /// Issuing a request message from the processor to the CMMU.
    pub issue: u64,
    /// Instruction-fetch miss (local memory access).
    pub ifetch_miss: u64,
    /// Base backoff after a BUSY bounce (doubles-ish per retry).
    pub busy_backoff: u64,
}

impl Default for ProcTiming {
    fn default() -> Self {
        ProcTiming {
            hit: 2,
            victim_hit: 3,
            fill: 2,
            issue: 2,
            busy_backoff: 24,
            ifetch_miss: 10,
        }
    }
}

/// Livelock-watchdog parameters (paper §4.1): a timer interrupt
/// detects protocol handlers starving user code and temporarily shuts
/// off asynchronous events. Armed automatically for the protocols that
/// trap on every acknowledgment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Continuous handler occupancy (cycles) that counts as possible
    /// livelock.
    pub window: u64,
    /// How long asynchronous events stay off so user code can run.
    pub grace: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window: 4_000,
            grace: 1_000,
        }
    }
}

/// Full machine configuration. Build with [`MachineConfig::builder`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processing nodes.
    pub nodes: usize,
    /// The coherence protocol.
    pub protocol: ProtocolSpec,
    /// Which handler implementation prices the software traps.
    pub handler_impl: HandlerImpl,
    /// Per-node cache geometry.
    pub cache: CacheConfig,
    /// Network timing.
    pub net: NetConfig,
    /// Processor timing.
    pub proc: ProcTiming,
    /// Watchdog parameters.
    pub watchdog: WatchdogConfig,
    /// One-cycle instruction access without touching the cache
    /// (Figure 3's "perfect ifetch" simulator option).
    pub perfect_ifetch: bool,
    /// Cycles for a full-machine barrier (Alewife's fast-barrier
    /// runtime; scales with log2(nodes) at build time).
    pub barrier_cycles: u64,
    /// Track worker sets (Figure 6); small runtime cost.
    pub track_worker_sets: bool,
    /// Coherence-sanitizer level: `Off` (default, zero cost), `Basic`
    /// (per-event directory invariants + the global copy registry +
    /// quiesce audit), or `Full` (adds per-access permission checks
    /// and the read-stream log for the differential oracle).
    pub check: CheckLevel,
    /// Event lanes: `1` runs the serial reference engine, more runs
    /// the sharded conservative parallel engine with that many lanes
    /// (DESIGN.md §9). Both produce bit-identical results — the same
    /// cycle counts, statistics, memory images and read streams —
    /// because every event is ordered by the same structural
    /// `(time, key)` total order; only wall time changes.
    pub shards: usize,
}

impl MachineConfig {
    /// Starts building a configuration (defaults: 16 nodes,
    /// `Dir_nH_5S_{NB}`, flexible-C handlers, Alewife cache, no victim
    /// cache, checking off).
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }
}

/// Why a [`MachineConfig`] cannot be built.
///
/// Every invalid size that used to surface as a panic deep inside
/// machine construction (`DirectCache::new`'s power-of-two assert, the
/// `NodeId` sentinel collision) is caught here, at configuration time,
/// with a message naming the offending parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The node count is zero.
    ZeroNodes,
    /// The node count collides with the `NodeId::NONE` sentinel
    /// (`u16::MAX`): at most 65 535 nodes are addressable.
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// The cache line size is zero or not a power of two.
    BadLineBytes {
        /// The requested line size.
        line_bytes: u64,
    },
    /// The cache capacity is not a positive power-of-two multiple of
    /// the line size (the direct-mapped array needs a power-of-two set
    /// count).
    BadCacheGeometry {
        /// The requested capacity.
        capacity_bytes: u64,
        /// The requested line size.
        line_bytes: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::ZeroNodes => write!(f, "machine needs at least one node"),
            ConfigError::TooManyNodes { requested } => write!(
                f,
                "machine of {requested} nodes exceeds the 65535-node \
                 NodeId address space"
            ),
            ConfigError::BadLineBytes { line_bytes } => write!(
                f,
                "cache line size must be a positive power of two bytes, got {line_bytes}"
            ),
            ConfigError::BadCacheGeometry {
                capacity_bytes,
                line_bytes,
            } => write!(
                f,
                "cache capacity ({capacity_bytes} B) over line size ({line_bytes} B) \
                 must give a positive power-of-two set count"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`MachineConfig`].
///
/// # Examples
///
/// ```
/// use limitless_machine::MachineConfig;
/// use limitless_core::ProtocolSpec;
///
/// let cfg = MachineConfig::builder()
///     .nodes(64)
///     .protocol(ProtocolSpec::limitless(5))
///     .victim_cache(true)
///     .build();
/// assert_eq!(cfg.nodes, 64);
/// assert!(cfg.cache.victim_lines > 0);
/// ```
#[derive(Clone, Debug)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        MachineConfigBuilder {
            cfg: MachineConfig {
                nodes: 16,
                protocol: ProtocolSpec::limitless(5),
                handler_impl: HandlerImpl::FlexibleC,
                cache: CacheConfig::alewife(),
                net: NetConfig::default(),
                proc: ProcTiming::default(),
                watchdog: WatchdogConfig::default(),
                perfect_ifetch: false,
                barrier_cycles: 0, // derived at build time if left 0
                track_worker_sets: false,
                check: CheckLevel::Off,
                shards: 1,
            },
        }
    }
}

impl MachineConfigBuilder {
    /// Sets the node count.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Sets the coherence protocol.
    pub fn protocol(mut self, p: ProtocolSpec) -> Self {
        self.cfg.protocol = p;
        self
    }

    /// Selects the handler implementation (C or assembly cost model).
    pub fn handler_impl(mut self, h: HandlerImpl) -> Self {
        self.cfg.handler_impl = h;
        self
    }

    /// Replaces the cache configuration.
    pub fn cache(mut self, c: CacheConfig) -> Self {
        self.cfg.cache = c;
        self
    }

    /// Enables or disables the victim cache (Alewife's 4-entry
    /// transaction-store buffering).
    pub fn victim_cache(mut self, on: bool) -> Self {
        self.cfg.cache.victim_lines = if on { 4 } else { 0 };
        self
    }

    /// Enables the perfect-ifetch simulator option.
    pub fn perfect_ifetch(mut self, on: bool) -> Self {
        self.cfg.perfect_ifetch = on;
        self
    }

    /// Replaces the network timing.
    pub fn net(mut self, n: NetConfig) -> Self {
        self.cfg.net = n;
        self
    }

    /// Replaces the processor timing.
    pub fn proc(mut self, p: ProcTiming) -> Self {
        self.cfg.proc = p;
        self
    }

    /// Replaces the watchdog parameters.
    pub fn watchdog(mut self, w: WatchdogConfig) -> Self {
        self.cfg.watchdog = w;
        self
    }

    /// Enables worker-set tracking.
    pub fn track_worker_sets(mut self, on: bool) -> Self {
        self.cfg.track_worker_sets = on;
        self
    }

    /// Enables the global coherence-invariant checker at
    /// [`CheckLevel::Basic`] (compatibility switch; use
    /// [`MachineConfigBuilder::check_level`] for finer control).
    pub fn check_coherence(mut self, on: bool) -> Self {
        self.cfg.check = if on {
            CheckLevel::Basic
        } else {
            CheckLevel::Off
        };
        self
    }

    /// Sets the coherence-sanitizer level directly.
    pub fn check_level(mut self, level: CheckLevel) -> Self {
        self.cfg.check = level;
        self
    }

    /// Overrides the barrier latency (otherwise derived from the node
    /// count).
    pub fn barrier_cycles(mut self, c: u64) -> Self {
        self.cfg.barrier_cycles = c;
        self
    }

    /// Sets the event-lane count: `0` or `1` selects the serial
    /// engine, more selects the sharded parallel engine with that many
    /// lanes.
    pub fn shards(mut self, s: usize) -> Self {
        self.cfg.shards = s.max(1);
        self
    }

    /// Finalizes the configuration, validating every size the machine
    /// layers would otherwise panic on mid-construction.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending parameter: a
    /// zero or sentinel-colliding node count, a non-power-of-two line
    /// size, or a cache geometry without a power-of-two set count.
    pub fn try_build(mut self) -> Result<MachineConfig, ConfigError> {
        if self.cfg.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.cfg.nodes > usize::from(u16::MAX) {
            return Err(ConfigError::TooManyNodes {
                requested: self.cfg.nodes,
            });
        }
        let cache = self.cfg.cache;
        if cache.line_bytes == 0 || !cache.line_bytes.is_power_of_two() {
            return Err(ConfigError::BadLineBytes {
                line_bytes: cache.line_bytes,
            });
        }
        let sets = cache.capacity_bytes / cache.line_bytes;
        if sets == 0
            || !sets.is_power_of_two()
            || !cache.capacity_bytes.is_multiple_of(cache.line_bytes)
        {
            return Err(ConfigError::BadCacheGeometry {
                capacity_bytes: cache.capacity_bytes,
                line_bytes: cache.line_bytes,
            });
        }
        if self.cfg.barrier_cycles == 0 {
            // A dissemination/tree barrier: O(log n) network phases.
            let log = usize::BITS - self.cfg.nodes.next_power_of_two().leading_zeros() - 1;
            self.cfg.barrier_cycles = 20 + 12 * u64::from(log);
        }
        Ok(self.cfg)
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on any [`ConfigError`] (see
    /// [`MachineConfigBuilder::try_build`] for the fallible form).
    pub fn build(self) -> MachineConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_alewife() {
        let cfg = MachineConfig::builder().build();
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.protocol, ProtocolSpec::limitless(5));
        assert_eq!(cfg.cache.sets(), 4096);
        assert_eq!(cfg.cache.victim_lines, 0);
        assert!(!cfg.perfect_ifetch);
    }

    #[test]
    fn barrier_latency_scales_with_nodes() {
        let small = MachineConfig::builder().nodes(4).build();
        let big = MachineConfig::builder().nodes(256).build();
        assert!(big.barrier_cycles > small.barrier_cycles);
    }

    #[test]
    fn victim_cache_switch() {
        let on = MachineConfig::builder().victim_cache(true).build();
        assert_eq!(on.cache.victim_lines, 4);
        let off = MachineConfig::builder()
            .victim_cache(true)
            .victim_cache(false)
            .build();
        assert_eq!(off.cache.victim_lines, 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        MachineConfig::builder().nodes(0).build();
    }

    #[test]
    fn try_build_rejects_zero_nodes() {
        assert_eq!(
            MachineConfig::builder().nodes(0).try_build().unwrap_err(),
            ConfigError::ZeroNodes
        );
    }

    #[test]
    fn try_build_rejects_sentinel_colliding_node_counts() {
        // u16::MAX is NodeId::NONE; one fewer is the last addressable
        // machine size.
        assert!(MachineConfig::builder().nodes(65_535).try_build().is_ok());
        assert_eq!(
            MachineConfig::builder()
                .nodes(65_536)
                .try_build()
                .unwrap_err(),
            ConfigError::TooManyNodes { requested: 65_536 }
        );
    }

    #[test]
    fn try_build_rejects_bad_line_sizes() {
        for bad in [0, 3, 24] {
            let mut cache = CacheConfig::alewife();
            cache.line_bytes = bad;
            assert_eq!(
                MachineConfig::builder()
                    .cache(cache)
                    .try_build()
                    .unwrap_err(),
                ConfigError::BadLineBytes { line_bytes: bad }
            );
        }
    }

    #[test]
    fn try_build_rejects_non_power_of_two_set_counts() {
        // 48 B / 16 B = 3 sets: previously a panic inside
        // `DirectCache::new` at machine construction, now a typed error
        // at configuration time.
        let mut cache = CacheConfig::alewife();
        cache.capacity_bytes = 48;
        assert_eq!(
            MachineConfig::builder()
                .cache(cache)
                .try_build()
                .unwrap_err(),
            ConfigError::BadCacheGeometry {
                capacity_bytes: 48,
                line_bytes: 16
            }
        );
        // Capacity smaller than one line: zero sets.
        cache.capacity_bytes = 8;
        assert!(matches!(
            MachineConfig::builder()
                .cache(cache)
                .try_build()
                .unwrap_err(),
            ConfigError::BadCacheGeometry { .. }
        ));
    }

    #[test]
    fn config_error_messages_name_the_parameter() {
        let err = MachineConfig::builder().nodes(0).try_build().unwrap_err();
        assert!(err.to_string().contains("at least one node"));
        let mut cache = CacheConfig::alewife();
        cache.capacity_bytes = 48;
        let err = MachineConfig::builder()
            .cache(cache)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("power-of-two set count"));
    }

    #[test]
    fn check_levels_compose() {
        assert_eq!(MachineConfig::builder().build().check, CheckLevel::Off);
        let basic = MachineConfig::builder().check_coherence(true).build();
        assert_eq!(basic.check, CheckLevel::Basic);
        let full = MachineConfig::builder()
            .check_level(CheckLevel::Full)
            .build();
        assert!(full.check.is_full());
    }

    #[test]
    fn explicit_barrier_latency_respected() {
        let cfg = MachineConfig::builder().barrier_cycles(99).build();
        assert_eq!(cfg.barrier_cycles, 99);
    }

    #[test]
    fn shard_selection_normalizes_degenerate_counts() {
        assert_eq!(MachineConfig::builder().build().shards, 1);
        assert_eq!(MachineConfig::builder().shards(1).build().shards, 1);
        assert_eq!(MachineConfig::builder().shards(0).build().shards, 1);
        assert_eq!(MachineConfig::builder().shards(4).build().shards, 4);
    }
}
