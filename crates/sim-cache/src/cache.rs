//! A single cache level.
//!
//! [`Cache`] combines the tag-store arena, a replacement policy and
//! per-level statistics.  It knows nothing about latency or about other
//! levels; [`crate::hierarchy::CacheHierarchy`] composes several `Cache`s
//! and attributes cycles.
//!
//! ## Tag-store layout
//!
//! The tag store is a **structure of arrays**: the tags of line
//! `(set, way)` live in one contiguous `Box<[u64]>` at `set * ways + way`,
//! owner domains in a parallel array, and each set's valid/dirty/locked
//! way state is packed into one record (`SetMasks`) of three `u64` bit
//! masks.  The tag-match loop of every lookup therefore scans a contiguous
//! tag row and intersects with the valid mask; dirty counts, lock
//! exclusion and empty-way selection are single mask operations, and
//! per-domain way partitions resolve through a dense [`PartitionTable`]
//! rather than a `HashMap`.  `repro bench-sim` tracks the resulting
//! accesses/sec.
//!
//! The interface is deliberately attacker-visible: experiments can ask how
//! many dirty lines a set currently holds, lock lines (PLcache defense) or
//! restrict a protection domain to a subset of the ways (NoMo / DAWG).

use crate::addr::{CacheGeometry, LineAddr, PhysAddr};
use crate::config::{CacheConfig, WritePolicy};
use crate::line::DomainId;
use crate::policy::PolicyDispatch;
use crate::set::SetView;
use crate::stats::CacheStats;
use crate::waymask::{PartitionTable, WayMask};
use std::fmt;

/// Per-access context: which protection domain issued the access.
///
/// Domains feed two mechanisms: way partitioning (a domain may only fill
/// into its allotted ways) and ownership attribution used by the perf model
/// and the DAWG defense.  The domain's way mask is resolved once per access
/// through the cache's dense [`PartitionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessContext {
    /// The issuing protection/attribution domain.
    pub domain: DomainId,
}

impl AccessContext {
    /// Context for a given domain.
    pub fn for_domain(domain: DomainId) -> AccessContext {
        AccessContext { domain }
    }
}

/// A line evicted by a fill, reported to the caller so write-backs can be
/// propagated to the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// Whether the evicted line was dirty (requires a write-back).
    pub dirty: bool,
    /// Domain that owned the evicted line.
    pub owner: DomainId,
}

/// Result of installing a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whether a line was actually installed (partitioning can forbid it).
    pub filled: bool,
    /// The way that received the line, when filled.
    pub way: Option<usize>,
    /// The valid line that had to be evicted, if any.
    pub evicted: Option<EvictedLine>,
}

impl FillOutcome {
    fn bypassed() -> FillOutcome {
        FillOutcome {
            filled: false,
            way: None,
            evicted: None,
        }
    }
}

/// Packed per-set way-state masks (bit `i` describes way `i`).
///
/// The dirty and locked masks are always subsets of the valid mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetMasks {
    /// Ways holding a valid line.
    valid: u64,
    /// Ways holding a dirty line.
    dirty: u64,
    /// Ways holding a locked line (PLcache).
    locked: u64,
}

/// One level of the cache hierarchy.
pub struct Cache {
    config: CacheConfig,
    /// Ways per set, denormalised from the geometry for the hot path.
    ways: usize,
    /// The tag arena: the tag of line `(set, way)` at `set * ways + way`.
    /// Storing the tags contiguously (instead of packed 16-byte records)
    /// keeps the tag-match scan on one dense row of the set.
    tags: Box<[u64]>,
    /// Owner domain of line `(set, way)`, parallel to `tags`.
    owners: Box<[DomainId]>,
    /// Per-set packed way-state masks (valid/dirty/locked), one record per
    /// set so a fill's state updates touch one contiguous slot.
    masks: Box<[SetMasks]>,
    policy: PolicyDispatch,
    stats: CacheStats,
    /// Per-domain way restriction (NoMo / DAWG), dense by domain id.
    partitions: PartitionTable,
    /// Precomputed mask of every way of this cache.
    all_ways: WayMask,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("level", &self.config.level)
            .field("geometry", &self.config.geometry)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// Builds a cache from its configuration; `seed` drives any randomness in
    /// the replacement policy.
    ///
    /// # Errors
    ///
    /// Propagates policy construction errors (e.g. Tree-PLRU with a
    /// non-power-of-two associativity).
    pub fn new(config: CacheConfig, seed: u64) -> crate::Result<Cache> {
        let geometry = config.geometry;
        let policy = PolicyDispatch::build(
            config.replacement,
            geometry.num_sets,
            geometry.associativity,
            seed,
        )?;
        let all_ways = WayMask::all(geometry.associativity);
        Ok(Cache {
            config,
            ways: geometry.associativity,
            tags: vec![0u64; geometry.num_sets * geometry.associativity].into_boxed_slice(),
            owners: vec![0; geometry.num_sets * geometry.associativity].into_boxed_slice(),
            masks: vec![SetMasks::default(); geometry.num_sets].into_boxed_slice(),
            policy,
            stats: CacheStats::default(),
            partitions: PartitionTable::new(all_ways),
            all_ways,
        })
    }

    /// Resets this cache to the state [`Cache::new`] would produce for
    /// `(config, seed)`, reusing the tag/owner arenas when the geometry is
    /// unchanged.
    ///
    /// Behaviourally indistinguishable from a fresh construction: the valid
    /// masks are cleared (stale tags in invalid ways can never match or be
    /// observed), the replacement policy is rebuilt from the seed, and the
    /// statistics and partitions are reset.  Experiment loops that build one
    /// machine per repetition use this to stop paying a multi-hundred-KiB
    /// allocation per repetition.
    ///
    /// # Errors
    ///
    /// Propagates policy construction errors (as [`Cache::new`] would).
    pub fn reset(&mut self, config: CacheConfig, seed: u64) -> crate::Result<()> {
        if config.geometry != self.config.geometry {
            *self = Cache::new(config, seed)?;
            return Ok(());
        }
        self.policy = PolicyDispatch::build(
            config.replacement,
            config.geometry.num_sets,
            config.geometry.associativity,
            seed,
        )?;
        self.config = config;
        self.masks.fill(SetMasks::default());
        self.stats.reset();
        self.partitions = PartitionTable::new(self.all_ways);
        Ok(())
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.config.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters (not the cache contents).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Restricts `domain` to the given ways for fills and victim selection.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::EmptyWayMask`] if the mask enables no way.
    pub fn set_partition(&mut self, domain: DomainId, mask: WayMask) -> crate::Result<()> {
        let mask = mask.and(self.all_ways);
        if mask.is_empty() {
            return Err(crate::Error::EmptyWayMask);
        }
        self.partitions.set(domain, mask);
        Ok(())
    }

    /// The way mask `domain` is allowed to use.
    pub fn partition_of(&self, domain: DomainId) -> WayMask {
        self.partitions.resolve(domain)
    }

    /// The `(set index, tag)` pair of `addr` in this cache's geometry —
    /// computed once per access and threaded through the `*_at` entry points
    /// so the lookup and the subsequent fill never redo the address math.
    #[inline]
    pub(crate) fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let g = self.config.geometry;
        (g.set_index(addr), g.tag(addr))
    }

    /// Finds the way of `set` holding `tag`, if resident — the tag-match
    /// loop on the access hot path.
    ///
    /// An early-exit scan over the contiguous tag row, validity checked
    /// against the set's packed mask.  Benchmarked against a branchless
    /// mask-accumulating variant (with and without const-generic way
    /// counts): early exit wins on the hit-heavy traces and ties on the
    /// miss-heavy ones, because hits cluster in the low ways and the
    /// mispredict cost of the exit is amortised by the shorter scan.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let valid = self.masks[set].valid;
        self.tags[base..base + self.ways]
            .iter()
            .enumerate()
            .find_map(|(way, &t)| (t == tag && valid & Self::bit(way) != 0).then_some(way))
    }

    /// The mask bit of one way.
    #[inline]
    fn bit(way: usize) -> u64 {
        1u64 << way
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Whether the line containing `addr` is resident *and dirty*.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag)
            .map(|way| self.masks[set].dirty & Self::bit(way) != 0)
            .unwrap_or(false)
    }

    /// Number of dirty lines currently in `set`.
    ///
    /// This is the quantity the WB sender controls; exposing it lets tests
    /// and experiments verify the encoding without going through timing.
    pub fn dirty_count_in_set(&self, set: usize) -> usize {
        self.set(set).dirty_count()
    }

    /// Number of valid lines currently in `set`.
    pub fn valid_count_in_set(&self, set: usize) -> usize {
        self.set(set).valid_count()
    }

    /// Number of valid lines in `set` owned by `domain`.
    pub fn owned_count_in_set(&self, set: usize, domain: DomainId) -> usize {
        self.set(set).owned_count(domain)
    }

    /// Shared view of a set (for experiment introspection).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set(&self, set: usize) -> SetView<'_> {
        let base = set * self.ways;
        let masks = self.masks[set];
        SetView::new(
            &self.tags[base..base + self.ways],
            &self.owners[base..base + self.ways],
            masks.valid,
            masks.dirty,
            masks.locked,
        )
    }

    /// Looks up `addr` for a load.  On a hit the policy is refreshed and the
    /// hit is counted; on a miss only the miss is counted (the caller then
    /// decides whether to [`Cache::fill`]).
    pub fn lookup_read(&mut self, addr: PhysAddr, _ctx: AccessContext) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        self.lookup_read_at(set, tag)
    }

    /// [`Cache::lookup_read`] with the `(set, tag)` pair precomputed by
    /// [`Cache::set_and_tag`] — the hierarchy's demand path resolves the
    /// address once and reuses it for the fill.
    #[inline]
    pub(crate) fn lookup_read_at(&mut self, set: usize, tag: u64) -> Option<usize> {
        match self.find(set, tag) {
            Some(way) => {
                self.policy.on_hit(set, way);
                self.stats.read_hits += 1;
                Some(way)
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// Looks up `addr` for a store.  Under a write-back policy a hit marks
    /// the line dirty — the state transition the WB channel is built on.
    /// Under write-through the line stays clean (the hierarchy forwards the
    /// store to the next level).
    pub fn lookup_write(&mut self, addr: PhysAddr, _ctx: AccessContext) -> Option<usize> {
        let (set, tag) = self.set_and_tag(addr);
        self.lookup_write_at(set, tag)
    }

    /// [`Cache::lookup_write`] with the `(set, tag)` pair precomputed.
    #[inline]
    pub(crate) fn lookup_write_at(&mut self, set: usize, tag: u64) -> Option<usize> {
        match self.find(set, tag) {
            Some(way) => {
                self.policy.on_hit(set, way);
                if self.config.write_policy == WritePolicy::WriteBack {
                    self.masks[set].dirty |= Self::bit(way);
                }
                self.stats.write_hits += 1;
                Some(way)
            }
            None => {
                self.stats.write_misses += 1;
                None
            }
        }
    }

    /// Installs the line containing `addr`.
    ///
    /// `dirty` marks the freshly installed line as modified (write-allocate
    /// store miss under write-back).  `prefetch` attributes the fill to the
    /// prefetcher in the statistics.
    ///
    /// Ways are chosen in this order: an invalid allowed way first, then the
    /// replacement policy restricted to the domain's partition minus locked
    /// ways.  If no way is permitted the fill is bypassed.
    pub fn fill(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        dirty: bool,
        prefetch: bool,
    ) -> FillOutcome {
        let (set, tag) = self.set_and_tag(addr);
        // Already resident (can happen with racing prefetches): refresh only.
        if let Some(way) = self.find(set, tag) {
            self.policy.on_hit(set, way);
            if dirty && self.config.write_policy == WritePolicy::WriteBack {
                self.masks[set].dirty |= Self::bit(way);
            }
            return FillOutcome {
                filled: true,
                way: Some(way),
                evicted: None,
            };
        }
        self.fill_missing_at(set, tag, ctx, dirty, prefetch)
    }

    /// [`Cache::fill`] for a line the caller knows is **not** resident (a
    /// lookup on this level just missed and nothing filled it since), with
    /// the `(set, tag)` pair precomputed — skips the residency re-scan and
    /// the address math on the demand-miss path.
    #[inline]
    pub(crate) fn fill_missing_at(
        &mut self,
        set: usize,
        tag: u64,
        ctx: AccessContext,
        dirty: bool,
        prefetch: bool,
    ) -> FillOutcome {
        debug_assert!(
            self.find(set, tag).is_none(),
            "fill_missing caller must have observed a miss"
        );

        // The set's state record is loaded once up front and written back
        // once after the install — the whole fill is one load/store pair on
        // the masks array.
        let mut state = self.masks[set];

        // The domain's allotment is a dense-array load; locked ways (always
        // a subset of the valid ways) are excluded with one mask operation.
        let allowed = self.partitions.resolve(ctx.domain);
        let candidates = allowed.and(WayMask::from_bits(!state.locked));

        // An invalid allowed way, if any, is preferred over the policy's
        // victim; the per-set valid mask answers that in one mask operation
        // (fills prefer empty ways before running the policy, as real tag
        // pipelines do).  `trailing_zeros` yields the lowest such way,
        // matching the way-order scan this replaced.
        let invalid = !state.valid & allowed.bits();
        // The fill touch (`on_fill`) is issued together with the victim
        // choice: nothing reads policy state between the two, and Tree-PLRU
        // fuses them into one direction-word update.
        let way = if invalid != 0 {
            let way = invalid.trailing_zeros() as usize;
            self.policy.on_fill(set, way);
            Some(way)
        } else {
            self.policy.choose_victim_and_fill(set, candidates)
        };
        let Some(way) = way else {
            return FillOutcome::bypassed();
        };

        let bit = Self::bit(way);
        let index = set * self.ways + way;
        let evicted = if state.valid & bit != 0 {
            let line = EvictedLine {
                addr: self.config.geometry.line_addr(set, self.tags[index]),
                dirty: state.dirty & bit != 0,
                owner: self.owners[index],
            };
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.writebacks += 1;
            }
            Some(line)
        } else {
            None
        };

        let store_dirty = dirty && self.config.write_policy == WritePolicy::WriteBack;
        self.tags[index] = tag;
        self.owners[index] = ctx.domain;
        state.valid |= bit;
        if store_dirty {
            state.dirty |= bit;
        } else {
            state.dirty &= !bit;
        }
        // A refill always installs an unlocked line (locks die with the
        // victim), mirroring the packed-flag overwrite this replaced.
        state.locked &= !bit;
        self.masks[set] = state;
        self.stats.fills += 1;
        if prefetch {
            self.stats.prefetch_fills += 1;
        }

        FillOutcome {
            filled: true,
            way: Some(way),
            evicted,
        }
    }

    /// Installs every line of `addrs`, in order, discarding the per-fill
    /// outcomes (the batch counterpart of [`Cache::fill`], used by the
    /// eviction experiments' warm loops).
    pub fn fill_all(&mut self, addrs: &[PhysAddr], ctx: AccessContext, dirty: bool) {
        for &addr in addrs {
            let _ = self.fill(addr, ctx, dirty, false);
        }
    }

    /// Receives a dirty write-back from the level above.
    ///
    /// If the line is resident it is simply marked dirty; otherwise it is
    /// installed dirty.  Returns any line evicted to make room.
    #[inline]
    pub fn accept_writeback(&mut self, addr: PhysAddr, ctx: AccessContext) -> Option<EvictedLine> {
        self.accept_victim(addr, ctx, true)
    }

    /// Receives a victim from the level above, clean or dirty.
    ///
    /// The exclusive-LLC install path: an exclusive last level is a victim
    /// cache, so *clean* upper-level victims are installed too (unlike
    /// [`Cache::accept_writeback`], which only ever carries dirty data).  A
    /// resident line is refreshed and, when `dirty`, marked dirty; a missing
    /// line is installed with the given dirty state.  Returns any line
    /// evicted to make room.
    #[inline]
    pub fn accept_victim(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
        dirty: bool,
    ) -> Option<EvictedLine> {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            if dirty && self.config.write_policy == WritePolicy::WriteBack {
                self.masks[set].dirty |= Self::bit(way);
            }
            self.policy.on_hit(set, way);
            return None;
        }
        let outcome = self.fill_missing_at(set, tag, ctx, dirty, false);
        outcome.evicted
    }

    /// Removes the line containing `addr` without touching any counter,
    /// returning `Some(was_dirty)` if it was resident.
    ///
    /// This is the residency-maintenance primitive behind inclusion
    /// policies: inclusive back-invalidation (an LLC eviction forcing the
    /// upper-level copies out) and exclusive promotion (an LLC hit moving
    /// the line up) both *relocate* a line rather than flushing it, so the
    /// hierarchy attributes the traffic in [`crate::stats::HierarchyStats`]
    /// instead of this level's flush/write-back counters.
    pub fn remove_line(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        let way = self.find(set, tag)?;
        let bit = Self::bit(way);
        let masks = &mut self.masks[set];
        let was_dirty = masks.dirty & bit != 0;
        masks.valid &= !bit;
        masks.dirty &= !bit;
        masks.locked &= !bit;
        self.policy.on_invalidate(set, way);
        Some(was_dirty)
    }

    /// Invalidates the line containing `addr` (`clflush`), returning
    /// `Some(was_dirty)` if it was resident.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        let way = self.find(set, tag)?;
        let bit = Self::bit(way);
        let masks = &mut self.masks[set];
        let was_dirty = masks.dirty & bit != 0;
        masks.valid &= !bit;
        masks.dirty &= !bit;
        masks.locked &= !bit;
        self.policy.on_invalidate(set, way);
        self.stats.flushes += 1;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        Some(was_dirty)
    }

    /// Locks the resident line containing `addr` against eviction (PLcache).
    /// Returns `true` if the line was resident and is now locked.
    pub fn lock_line(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.masks[set].locked |= Self::bit(way);
            true
        } else {
            false
        }
    }

    /// Unlocks the resident line containing `addr`.  Returns `true` if the
    /// line was resident.
    pub fn unlock_line(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.masks[set].locked &= !Self::bit(way);
            true
        } else {
            false
        }
    }

    /// Invalidates the entire cache, returning the number of dirty lines
    /// discarded (their write-backs are *not* propagated — use only in test
    /// setup and defense resets).
    pub fn clear(&mut self) -> usize {
        let dirty: u32 = self.masks.iter().map(|m| m.dirty.count_ones()).sum();
        self.masks.fill(SetMasks::default());
        self.policy.reset();
        dirty as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheLevel, WriteMissPolicy};
    use crate::policy::PolicyKind;

    fn l1(policy: PolicyKind) -> Cache {
        Cache::new(CacheConfig::xeon_l1d(policy), 7).unwrap()
    }

    fn addr(set: usize, tag: u64) -> PhysAddr {
        PhysAddr::from_set_and_tag(set, tag, CacheGeometry::xeon_l1d())
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let a = addr(5, 1);
        assert!(cache.lookup_read(a, ctx).is_none());
        let fill = cache.fill(a, ctx, false, false);
        assert!(fill.filled);
        assert!(fill.evicted.is_none());
        assert!(cache.lookup_read(a, ctx).is_some());
        assert_eq!(cache.stats().read_hits, 1);
        assert_eq!(cache.stats().read_misses, 1);
        assert_eq!(cache.stats().fills, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty_under_write_back() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(1);
        let a = addr(0, 3);
        cache.fill(a, ctx, false, false);
        assert!(!cache.is_dirty(a));
        cache.lookup_write(a, ctx);
        assert!(cache.is_dirty(a), "store hit must set the dirty bit");
        assert_eq!(cache.dirty_count_in_set(0), 1);
    }

    #[test]
    fn write_hit_stays_clean_under_write_through() {
        let config = CacheConfig::builder(CacheLevel::L1D)
            .write_policy(WritePolicy::WriteThrough)
            .write_miss_policy(WriteMissPolicy::NoWriteAllocate)
            .build()
            .unwrap();
        let mut cache = Cache::new(config, 0).unwrap();
        let ctx = AccessContext::default();
        let a = addr(0, 3);
        cache.fill(a, ctx, true, false);
        assert!(
            !cache.is_dirty(a),
            "write-through caches never hold dirty lines"
        );
        cache.lookup_write(a, ctx);
        assert!(!cache.is_dirty(a));
    }

    #[test]
    fn filling_a_full_set_evicts_and_reports_dirty_victims() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let set = 9;
        // Fill the set with 8 lines; make the first one dirty.
        for tag in 0..8u64 {
            cache.fill(addr(set, tag), ctx, tag == 0, false);
        }
        assert_eq!(cache.dirty_count_in_set(set), 1);
        // The 9th fill must evict the LRU line, which is the dirty tag 0.
        let outcome = cache.fill(addr(set, 100), ctx, false, false);
        let evicted = outcome.evicted.expect("a line must be evicted");
        assert!(evicted.dirty);
        assert_eq!(cache.stats().writebacks, 1);
        assert_eq!(cache.dirty_count_in_set(set), 0);
    }

    #[test]
    fn fill_all_installs_every_line_in_order() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(2);
        let set = 4;
        let addrs: Vec<PhysAddr> = (0..8).map(|t| addr(set, t)).collect();
        cache.fill_all(&addrs, ctx, true);
        assert_eq!(cache.dirty_count_in_set(set), 8);
        assert_eq!(cache.stats().fills, 8);
        // Identical to eight single fills: the LRU victim is tag 0.
        let outcome = cache.fill(addr(set, 100), ctx, false, false);
        assert_eq!(
            outcome.evicted.expect("eviction").addr,
            cache.geometry().line_addr(set, 0)
        );
    }

    #[test]
    fn locked_lines_are_never_evicted() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::default();
        let set = 2;
        let protected = addr(set, 0);
        cache.fill(protected, ctx, true, false);
        assert!(cache.lock_line(protected));
        // Fill far more lines than the associativity.
        for tag in 1..32u64 {
            cache.fill(addr(set, tag), ctx, false, false);
        }
        assert!(cache.contains(protected), "locked line must survive");
        assert!(cache.is_dirty(protected));
        assert!(cache.unlock_line(protected));
        for tag in 32..64u64 {
            cache.fill(addr(set, tag), ctx, false, false);
        }
        assert!(
            !cache.contains(protected),
            "unlocked line is evictable again"
        );
    }

    #[test]
    fn partitions_confine_fills_to_allowed_ways() {
        let mut cache = l1(PolicyKind::TrueLru);
        // Domain 1 may only use ways 0-3, domain 2 only ways 4-7 (NoMo).
        cache.set_partition(1, WayMask::range(0, 4)).unwrap();
        cache.set_partition(2, WayMask::range(4, 8)).unwrap();
        let set = 11;
        for tag in 0..16u64 {
            cache.fill(addr(set, tag), AccessContext::for_domain(1), false, false);
        }
        assert_eq!(cache.owned_count_in_set(set, 1), 4);
        for tag in 100..104u64 {
            cache.fill(addr(set, tag), AccessContext::for_domain(2), false, false);
        }
        assert_eq!(
            cache.owned_count_in_set(set, 1),
            4,
            "domain 2 must not evict domain 1"
        );
        assert_eq!(cache.owned_count_in_set(set, 2), 4);
        assert!(cache.set_partition(1, WayMask::EMPTY).is_err());
    }

    #[test]
    fn accept_writeback_marks_or_installs_dirty() {
        let mut cache = Cache::new(CacheConfig::xeon_l2(), 3).unwrap();
        let ctx = AccessContext::default();
        let g = cache.geometry();
        let a = PhysAddr::from_set_and_tag(17, 4, g);
        // Not resident: installed dirty.
        assert!(cache.accept_writeback(a, ctx).is_none());
        assert!(cache.is_dirty(a));
        // Resident clean line becomes dirty.
        let b = PhysAddr::from_set_and_tag(17, 5, g);
        cache.fill(b, ctx, false, false);
        assert!(!cache.is_dirty(b));
        cache.accept_writeback(b, ctx);
        assert!(cache.is_dirty(b));
    }

    #[test]
    fn invalidate_reports_dirtiness_and_counts_flush() {
        let mut cache = l1(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(30, 2);
        assert_eq!(cache.invalidate(a), None);
        cache.fill(a, ctx, true, false);
        assert_eq!(cache.invalidate(a), Some(true));
        assert!(!cache.contains(a));
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn clear_resets_contents_and_reports_dirty_lines() {
        let mut cache = l1(PolicyKind::Random);
        let ctx = AccessContext::default();
        cache.fill(addr(1, 1), ctx, true, false);
        cache.fill(addr(2, 1), ctx, true, false);
        cache.fill(addr(3, 1), ctx, false, false);
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.valid_count_in_set(1), 0);
    }

    #[test]
    fn refilling_resident_line_does_not_evict() {
        let mut cache = l1(PolicyKind::TreePlru);
        let ctx = AccessContext::default();
        let a = addr(4, 9);
        cache.fill(a, ctx, false, false);
        let again = cache.fill(a, ctx, true, false);
        assert!(again.filled);
        assert!(again.evicted.is_none());
        assert!(cache.is_dirty(a), "dirty refill upgrades the line");
        assert_eq!(cache.stats().fills, 1, "second fill is a no-op refresh");
    }

    #[test]
    fn set_view_exposes_the_arena_contents() {
        let mut cache = l1(PolicyKind::TrueLru);
        let ctx = AccessContext::for_domain(3);
        cache.fill(addr(6, 40), ctx, true, false);
        cache.fill(addr(6, 41), ctx, false, false);
        let view = cache.set(6);
        assert_eq!(view.ways(), 8);
        assert_eq!(view.valid_count(), 2);
        assert_eq!(view.dirty_count(), 1);
        assert_eq!(view.resident_tags(), vec![40, 41]);
        assert_eq!(view.owned_count(3), 2);
    }

    #[test]
    fn debug_formatting_mentions_policy() {
        let cache = l1(PolicyKind::TreePlru);
        let text = format!("{cache:?}");
        assert!(text.contains("Tree-PLRU"));
    }
}
