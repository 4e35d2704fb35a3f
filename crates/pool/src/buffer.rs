//! The size-classed, lock-striped buffer pool.
//!
//! Layout: capacities are bucketed into power-of-two *size classes*
//! (`min_class_elems << i` elements). Each class keeps its buffers in
//! several independently locked *stripes*; a thread hashes to a home
//! stripe, so two workers recycling concurrently rarely contend. On top
//! of the shared stripes sits one *thread-local fast slot* per
//! `(pool, class)`: a stage that recycles its input buffer and
//! immediately acquires a similar-sized output buffer (the common
//! pipeline pattern) round-trips through thread-local storage without
//! touching a lock.
//!
//! Retention is bounded by demand: each class counts the buffers it has
//! handed out (fast-slot hit, stripe hit or fresh allocation) and not
//! yet taken back. A returned buffer is kept — in the caller's fast slot
//! or a stripe — only while its class's count is positive, and keeping
//! it decrements the count; otherwise it is freed and counted as
//! `dropped`. A class therefore never holds more buffers than it has
//! allocated, and buffers of a size nobody acquires (a crop's source
//! volume, a cache copy of odd capacity) go straight back to the
//! allocator instead of squatting on the budget. An acquire larger
//! than the largest class counts against the largest class, which is
//! where its buffer is filed when it comes back.
//!
//! The byte budgets stay upper caps on top of that rule. Byte accounting
//! covers the shared stripes only — thread-local slots are bounded at
//! one buffer per class per thread and are intentionally outside the
//! budget (they are the pool's L1, not its capacity).

use parking_lot::Mutex;
use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Observer of acquire outcomes, for per-event tracing layered on top of
/// the pool's own counters.
///
/// Called synchronously from [`BufferPool::acquire`] on every
/// resolution — `hit = true` when the buffer came from a free-list
/// (thread-local fast slot or shared stripe), `false` on a fresh
/// allocation. Implementations run on the hot path and must be cheap,
/// non-blocking, and allocation-free.
pub trait AcquireObserver: Send + Sync {
    /// One acquire resolved; `hit` is whether pooled memory served it.
    fn on_acquire(&self, hit: bool);
}

/// Configuration of one [`BufferPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total bytes the pool may keep resident across all shared
    /// free-lists; 0 disables the pool entirely.
    pub budget_bytes: u64,
    /// Per-class cap on resident bytes (0 = no extra cap beyond
    /// `budget_bytes`). Prevents one buffer size from monopolizing the
    /// whole budget.
    pub class_budget_bytes: u64,
    /// Lock stripes per size class.
    pub stripes: usize,
    /// Capacity (in elements) of the smallest size class.
    pub min_class_elems: usize,
    /// Number of power-of-two size classes; the largest class holds
    /// buffers of `min_class_elems << (num_classes - 1)` elements.
    pub num_classes: usize,
    /// Keep one per-thread fast slot per class in front of the striped
    /// lists.
    pub thread_local_slots: bool,
}

impl PoolConfig {
    /// A pool with `budget_bytes` of capacity and default geometry:
    /// classes from 64 elements up to ~2 M elements, 4 stripes per
    /// class, per-class cap of half the budget.
    pub fn with_budget(budget_bytes: u64) -> PoolConfig {
        PoolConfig {
            budget_bytes,
            class_budget_bytes: budget_bytes / 2,
            stripes: 4,
            min_class_elems: 64,
            num_classes: 16,
            thread_local_slots: true,
        }
    }

    /// A disabled pool (budget 0): acquires allocate, recycles drop.
    pub fn disabled() -> PoolConfig {
        PoolConfig::with_budget(0)
    }
}

/// Counter snapshot of one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from a free-list (including fast slots).
    pub hits: u64,
    /// Acquires that fell through to a fresh allocation.
    pub misses: u64,
    /// Hits served by a thread-local fast slot (subset of `hits`).
    pub tl_hits: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Buffers released to the allocator on return instead of kept: no
    /// acquire from their size class was outstanding, the byte budget
    /// was full, the buffer was smaller than the smallest class, or the
    /// pool is disabled.
    pub dropped: u64,
    /// Bytes currently resident in the shared free-lists. This is the
    /// steady-state working set the pool holds between samples.
    pub bytes: u64,
}

impl PoolStats {
    /// Total acquires.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of acquires served from pooled memory (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.hits as f64 / l as f64
        }
    }

    /// Element-wise sum (for aggregating the pools of a
    /// [`PoolSet`](crate::PoolSet)).
    pub fn merged(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            tl_hits: self.tl_hits + other.tl_hits,
            recycled: self.recycled + other.recycled,
            dropped: self.dropped + other.dropped,
            bytes: self.bytes + other.bytes,
        }
    }
}

struct SizeClass<T> {
    /// Every buffer stored in this class has `capacity() >= cap_elems`.
    cap_elems: usize,
    bytes: AtomicU64,
    /// Buffers handed out from this class and not yet taken back: how
    /// many more returns the class may keep.
    demand: AtomicUsize,
    stripes: Vec<Mutex<Vec<Vec<T>>>>,
}

impl<T> SizeClass<T> {
    /// Takes one unit of demand; `false` when nothing is outstanding.
    ///
    /// `demand` is a quota that publishes no other data (buffers travel
    /// through the stripe locks and fast slots), and read-modify-writes
    /// on one atomic are totally ordered, so `Relaxed` keeps the count
    /// exact.
    fn claim_demand(&self) -> bool {
        self.demand
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1))
            .is_ok()
    }
}

/// A size-classed, lock-striped pool of `Vec<T>` buffers.
///
/// `acquire` hands out a cleared buffer with at least the requested
/// capacity; `recycle` takes a buffer back, clears it, and files it
/// under the largest class it can serve — if that class has a buffer
/// outstanding to replace and the budget has room; otherwise it drops
/// it. Buffers allocated on a miss are sized to the class capacity, so
/// recycled memory keeps fitting the class it came from.
pub struct BufferPool<T: Send + 'static> {
    id: u64,
    cfg: PoolConfig,
    classes: Vec<SizeClass<T>>,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    tl_hits: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    /// Per-acquire observer (tracing); set once, first setter wins.
    observer: OnceLock<Arc<dyn AcquireObserver>>,
    /// Audit mode: [`Recycled`] guards currently outstanding.
    #[cfg(minato_lock_graph)]
    audit_guards: AtomicU64,
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_SEED: AtomicUsize = AtomicUsize::new(0);

/// Ids of pools currently alive. Fast slots of *dropped* pools are
/// unreachable by any future acquire, so long-lived threads sweep them
/// out of their TLS map (amortized, see [`tl_put`]) instead of leaking
/// one parked buffer per (dead pool, class) forever.
static LIVE_POOLS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// TLS map size beyond which an insert of a new key triggers a sweep of
/// entries whose pool has been dropped.
const FAST_SLOT_SWEEP_THRESHOLD: usize = 64;

thread_local! {
    /// Stripe selector: a stable small integer per thread.
    static THREAD_SEED: usize = NEXT_THREAD_SEED.fetch_add(1, Ordering::Relaxed);
    /// Fast slots: at most one parked buffer per (pool id, class) per
    /// thread. Entries are type-erased so one TLS map serves pools of
    /// every element type; the unique pool id guarantees the downcast
    /// target matches. An entry holding an empty (zero-capacity) vec is
    /// the vacant marker, so the `Box` itself is allocated once per
    /// (pool, class, thread) and reused forever after.
    static FAST_SLOTS: RefCell<HashMap<(u64, usize), Box<dyn Any>>> =
        RefCell::new(HashMap::new());
}

fn tl_take<T: 'static>(pool: u64, class: usize) -> Option<Vec<T>> {
    FAST_SLOTS.with(|slots| {
        let mut slots = slots.borrow_mut();
        let slot = slots.get_mut(&(pool, class))?;
        let buf = slot.downcast_mut::<Vec<T>>()?;
        if buf.capacity() == 0 {
            None
        } else {
            Some(std::mem::take(buf))
        }
    })
}

/// Parks `buf` in the calling thread's fast slot; hands it back if the
/// slot is occupied (or holds a different element type).
///
/// Creating a *new* slot on a grown map first sweeps entries belonging
/// to dropped pools, so a thread that outlives many loader generations
/// (the typical training-loop consumer) keeps at most
/// [`FAST_SLOT_SWEEP_THRESHOLD`]-ish live slots instead of accreting
/// parked buffers for every pool that ever existed.
fn tl_put<T: Send + 'static>(pool: u64, class: usize, buf: Vec<T>) -> Result<(), Vec<T>> {
    FAST_SLOTS.with(|slots| {
        let mut slots = slots.borrow_mut();
        if slots.len() >= FAST_SLOT_SWEEP_THRESHOLD && !slots.contains_key(&(pool, class)) {
            let live = LIVE_POOLS.lock();
            slots.retain(|&(id, _), _| live.contains(&id));
        }
        match slots.entry((pool, class)) {
            Entry::Vacant(e) => {
                e.insert(Box::new(buf));
                Ok(())
            }
            Entry::Occupied(mut e) => match e.get_mut().downcast_mut::<Vec<T>>() {
                Some(slot) if slot.capacity() == 0 => {
                    *slot = buf;
                    Ok(())
                }
                _ => Err(buf),
            },
        }
    })
}

impl<T: Send + 'static> BufferPool<T> {
    /// Creates a pool with the given configuration.
    pub fn new(mut cfg: PoolConfig) -> BufferPool<T> {
        cfg.stripes = cfg.stripes.max(1);
        cfg.min_class_elems = cfg.min_class_elems.max(1);
        cfg.num_classes = cfg.num_classes.clamp(1, 48);
        if cfg.class_budget_bytes == 0 {
            cfg.class_budget_bytes = cfg.budget_bytes;
        }
        let classes = (0..cfg.num_classes)
            .map(|i| SizeClass {
                cap_elems: cfg.min_class_elems << i,
                bytes: AtomicU64::new(0),
                demand: AtomicUsize::new(0),
                stripes: (0..cfg.stripes).map(|_| Mutex::new(Vec::new())).collect(),
            })
            .collect();
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        LIVE_POOLS.lock().push(id);
        BufferPool {
            id,
            cfg,
            classes,
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tl_hits: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            observer: OnceLock::new(),
            #[cfg(minato_lock_graph)]
            audit_guards: AtomicU64::new(0),
        }
    }

    /// Installs an [`AcquireObserver`] notified on every acquire. First
    /// setter wins; later calls are ignored (the slot is write-once so
    /// the hot path needs no lock to read it).
    pub fn set_observer(&self, obs: Arc<dyn AcquireObserver>) {
        let _ = self.observer.set(obs);
    }

    /// Notifies the observer, if any, of one acquire outcome.
    // minato-verify: hot-path
    #[inline]
    fn observe(&self, hit: bool) {
        if let Some(obs) = self.observer.get() {
            obs.on_acquire(hit);
        }
    }

    /// Whether the pool can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.cfg.budget_bytes > 0
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Smallest class able to serve `min_elems`, if any.
    fn class_for_acquire(&self, min_elems: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.cap_elems >= min_elems)
    }

    /// Largest class a buffer of `capacity` elements can serve, if any.
    fn class_for_recycle(&self, capacity: usize) -> Option<usize> {
        self.classes.iter().rposition(|c| c.cap_elems <= capacity)
    }

    /// Returns an *empty* buffer with `capacity() >= min_elems`, served
    /// from the free-lists when possible (thread-local fast slot first,
    /// then the striped shared lists) and freshly allocated otherwise.
    /// Either way the buffer counts as demand on its class until it is
    /// recycled.
    // minato-verify: hot-path (Vec::with_capacity is the pool's one sanctioned allocation)
    pub fn acquire(&self, min_elems: usize) -> Vec<T> {
        if self.enabled() {
            let ci = self.class_for_acquire(min_elems);
            // An oversized buffer is filed under the largest class when
            // it comes back, so that is where its demand goes.
            let demand_class = ci.unwrap_or(self.classes.len() - 1);
            self.classes[demand_class]
                .demand
                .fetch_add(1, Ordering::Relaxed);
            if let Some(ci) = ci {
                if self.cfg.thread_local_slots {
                    if let Some(buf) = tl_take::<T>(self.id, ci) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.tl_hits.fetch_add(1, Ordering::Relaxed);
                        self.observe(true);
                        return buf;
                    }
                }
                let class = &self.classes[ci];
                let n = class.stripes.len();
                let home = THREAD_SEED.with(|s| *s) % n;
                for k in 0..n {
                    let mut stripe = class.stripes[(home + k) % n].lock();
                    if let Some(buf) = stripe.pop() {
                        drop(stripe);
                        let sz = (buf.capacity() * std::mem::size_of::<T>()) as u64;
                        self.bytes.fetch_sub(sz, Ordering::AcqRel);
                        class.bytes.fetch_sub(sz, Ordering::AcqRel);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.observe(true);
                        return buf;
                    }
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.observe(false);
                // Allocate at class granularity so the buffer stays
                // eligible for this class when it comes back.
                return Vec::with_capacity(class.cap_elems);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.observe(false);
        Vec::with_capacity(min_elems)
    }

    /// Acquires a buffer and fills it to `len` copies of `value` —
    /// byte-identical to `vec![value; len]`, minus the allocation on a
    /// pool hit.
    pub fn acquire_filled(&self, len: usize, value: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut buf = self.acquire(len);
        buf.resize(len, value);
        buf
    }

    /// Acquires a buffer wrapped in an RAII guard that recycles it on
    /// drop.
    pub fn acquire_guard(&self, min_elems: usize) -> Recycled<'_, T> {
        #[cfg(minato_lock_graph)]
        self.audit_guards.fetch_add(1, Ordering::AcqRel);
        Recycled {
            buf: self.acquire(min_elems),
            detached: false,
            pool: self,
        }
    }

    /// Takes a buffer back. The buffer is cleared and filed under the
    /// largest class its capacity can serve; it is dropped instead when
    /// the pool is disabled, the buffer is smaller than the smallest
    /// class, no buffer of that class is outstanding (nothing acquired
    /// from it will come asking again), or accepting it would exceed the
    /// class/global byte budget.
    // minato-verify: hot-path
    pub fn recycle(&self, mut buf: Vec<T>) {
        let cap = buf.capacity();
        if !self.enabled() || cap == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(ci) = self.class_for_recycle(cap) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let class = &self.classes[ci];
        if !class.claim_demand() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        if self.cfg.thread_local_slots {
            match tl_put(self.id, ci, buf) {
                Ok(()) => {
                    self.recycled.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(back) => buf = back,
            }
        }
        let sz = (cap * std::mem::size_of::<T>()) as u64;
        // Optimistic add, undo on overshoot: never lets `bytes` sit
        // above the budget from a concurrent observer's perspective by
        // more than the in-flight reservation being rolled back.
        let global = self.bytes.fetch_add(sz, Ordering::AcqRel) + sz;
        if global > self.cfg.budget_bytes {
            self.bytes.fetch_sub(sz, Ordering::AcqRel);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let class_total = class.bytes.fetch_add(sz, Ordering::AcqRel) + sz;
        if class_total > self.cfg.class_budget_bytes {
            class.bytes.fetch_sub(sz, Ordering::AcqRel);
            self.bytes.fetch_sub(sz, Ordering::AcqRel);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = class.stripes.len();
        let home = THREAD_SEED.with(|s| *s) % n;
        class.stripes[home].lock().push(buf);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            tl_hits: self.tl_hits.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Acquire),
        }
    }
}

impl<T: Send + 'static> BufferPool<T> {
    /// Audit-mode teardown check: the byte counters must agree with the
    /// memory actually resident in the free-lists, and no RAII guard may
    /// still be outstanding. Catches leaked accounting the steady-state
    /// counters would silently absorb.
    #[cfg(minato_lock_graph)]
    fn audit_at_drop(&mut self) {
        let outstanding = self.audit_guards.load(Ordering::Acquire);
        assert!(
            outstanding == 0,
            "pool audit (id {}): {} Recycled guard(s) outstanding at pool drop",
            self.id,
            outstanding
        );
        let mut total = 0u64;
        for (ci, class) in self.classes.iter().enumerate() {
            let mut resident = 0u64;
            for stripe in &class.stripes {
                for buf in stripe.lock().iter() {
                    resident += (buf.capacity() * std::mem::size_of::<T>()) as u64;
                }
            }
            let counter = class.bytes.load(Ordering::Acquire);
            assert!(
                resident == counter,
                "pool audit (id {}): class {} ({} elems) counts {} bytes but \
                 holds {} bytes resident",
                self.id,
                ci,
                class.cap_elems,
                counter,
                resident
            );
            total += resident;
        }
        let global = self.bytes.load(Ordering::Acquire);
        assert!(
            total == global,
            "pool audit (id {}): global counter says {} bytes but classes \
             hold {} bytes resident",
            self.id,
            global,
            total
        );
    }
}

impl<T: Send + 'static> Drop for BufferPool<T> {
    fn drop(&mut self) {
        #[cfg(minato_lock_graph)]
        self.audit_at_drop();
        // Deregister so long-lived threads' fast-slot sweeps (see
        // `tl_put`) can reclaim slots parked under this pool's id.
        LIVE_POOLS.lock().retain(|&id| id != self.id);
    }
}

impl<T: Send + 'static> std::fmt::Debug for BufferPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("id", &self.id)
            .field("budget_bytes", &self.cfg.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

/// RAII handle over a pooled buffer: derefs to the `Vec<T>` and returns
/// the memory to its pool when dropped. Use [`Recycled::detach`] to keep
/// the buffer instead.
#[must_use = "dropping the guard immediately recycles the buffer"]
pub struct Recycled<'p, T: Send + 'static> {
    buf: Vec<T>,
    detached: bool,
    pool: &'p BufferPool<T>,
}

/// Alias emphasizing the guard role of [`Recycled`].
pub type PoolGuard<'p, T> = Recycled<'p, T>;

impl<T: Send + 'static> Recycled<'_, T> {
    /// Takes the buffer out of the guard; it will *not* be recycled.
    pub fn detach(mut self) -> Vec<T> {
        self.detached = true;
        std::mem::take(&mut self.buf)
    }
}

impl<T: Send + 'static> Deref for Recycled<'_, T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Send + 'static> DerefMut for Recycled<'_, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Send + 'static> Drop for Recycled<'_, T> {
    fn drop(&mut self) {
        #[cfg(minato_lock_graph)]
        self.pool.audit_guards.fetch_sub(1, Ordering::AcqRel);
        if !self.detached {
            self.pool.recycle(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(budget: u64) -> BufferPool<f32> {
        BufferPool::new(PoolConfig::with_budget(budget))
    }

    /// A pool with fast slots off, so hits/misses exercise the shared
    /// striped lists deterministically.
    fn shared_pool(budget: u64) -> BufferPool<f32> {
        let mut cfg = PoolConfig::with_budget(budget);
        cfg.thread_local_slots = false;
        BufferPool::new(cfg)
    }

    #[test]
    fn acquire_miss_then_hit_round_trip() {
        let p = shared_pool(1 << 20);
        let buf = p.acquire(100);
        assert!(buf.capacity() >= 100);
        assert!(buf.is_empty());
        assert_eq!(p.stats().misses, 1);
        p.recycle(buf);
        assert_eq!(p.stats().recycled, 1);
        assert!(p.stats().bytes > 0);
        let again = p.acquire(100);
        assert_eq!(p.stats().hits, 1);
        assert!(again.capacity() >= 100);
        assert_eq!(p.stats().bytes, 0, "resident bytes follow the buffer out");
    }

    #[test]
    fn thread_local_slot_short_circuits_locks() {
        let p = pool(1 << 20);
        let buf = p.acquire(64);
        p.recycle(buf);
        let _again = p.acquire(64);
        let s = p.stats();
        assert_eq!(s.tl_hits, 1, "same-thread round trip uses the fast slot");
        assert_eq!(s.bytes, 0, "fast slots are outside byte accounting");
    }

    #[test]
    fn budget_rejects_excess() {
        // Budget fits one 1024-elem f32 buffer (4096 B) but not two.
        let mut cfg = PoolConfig::with_budget(6000);
        cfg.thread_local_slots = false;
        cfg.class_budget_bytes = 6000;
        let p: BufferPool<f32> = BufferPool::new(cfg);
        let a = p.acquire(1000);
        let b = p.acquire(1000);
        p.recycle(a);
        p.recycle(b);
        let s = p.stats();
        assert_eq!(s.recycled, 1);
        assert_eq!(s.dropped, 1);
        assert!(s.bytes <= 6000);
    }

    #[test]
    fn per_class_budget_caps_one_size() {
        let mut cfg = PoolConfig::with_budget(1 << 20);
        cfg.class_budget_bytes = 4096; // One 1024-elem f32 buffer.
        cfg.thread_local_slots = false;
        let p: BufferPool<f32> = BufferPool::new(cfg);
        // Two buffers out of the class: demand for two returns.
        let _out = (p.acquire(1024), p.acquire(1024));
        p.recycle(Vec::with_capacity(1024));
        p.recycle(Vec::with_capacity(1024));
        let s = p.stats();
        assert_eq!((s.recycled, s.dropped), (1, 1));
    }

    #[test]
    fn disabled_pool_is_transparent() {
        let p = pool(0);
        let buf = p.acquire(50);
        assert_eq!(buf.capacity(), 50, "disabled pool allocates exactly");
        p.recycle(buf);
        let s = p.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.recycled, 0);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn oversized_requests_fall_through() {
        let p = shared_pool(1 << 30);
        let max = p.config().min_class_elems << (p.config().num_classes - 1);
        let buf = p.acquire(max + 1);
        assert!(buf.capacity() > max);
        assert_eq!(p.stats().misses, 1);
        p.recycle(buf); // Still lands in the largest class.
        assert_eq!(p.stats().recycled, 1);
    }

    #[test]
    fn recycle_into_a_class_never_acquired_from_is_dropped() {
        for p in [pool(1 << 20), shared_pool(1 << 20)] {
            p.recycle(Vec::with_capacity(1024));
            let s = p.stats();
            assert_eq!((s.recycled, s.dropped, s.bytes), (0, 1, 0), "{s:?}");
            // Demand in another class does not open this one.
            let _small = p.acquire(64);
            p.recycle(Vec::with_capacity(1024));
            assert_eq!((p.stats().recycled, p.stats().dropped), (0, 2));
            // One outstanding acquire admits exactly one return.
            let _out = p.acquire(1024);
            p.recycle(Vec::with_capacity(1024));
            p.recycle(Vec::with_capacity(1024));
            assert_eq!((p.stats().recycled, p.stats().dropped), (1, 3));
        }
    }

    #[test]
    fn oversized_acquire_creates_demand_on_the_largest_class() {
        let p = shared_pool(1 << 30);
        let last = p.classes.len() - 1;
        let max = p.classes[last].cap_elems;
        let big = p.acquire(max + 1);
        assert_eq!(p.classes[last].demand.load(Ordering::Relaxed), 1);
        // The oversized buffer's return fills that demand, and the
        // largest class then serves an ordinary acquire from it.
        p.recycle(big);
        assert_eq!(p.stats().recycled, 1);
        assert_eq!(p.classes[last].demand.load(Ordering::Relaxed), 0);
        p.recycle(Vec::with_capacity(max));
        assert_eq!(p.stats().dropped, 1, "no demand left for a second buffer");
        let again = p.acquire(max);
        assert!(
            again.capacity() > max,
            "served the recycled oversized buffer"
        );
        assert_eq!(p.stats().hits, 1);
    }

    thread_local! {
        /// Outcome of the calling thread's last acquire, set by
        /// [`LastHit`].
        static LAST_HIT: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
    }

    struct LastHit;

    impl AcquireObserver for LastHit {
        fn on_acquire(&self, hit: bool) {
            LAST_HIT.with(|c| c.set(Some(hit)));
        }
    }

    /// Four threads acquiring, holding, returning and returning foreign
    /// buffers (never acquired, some oversized) across six classes.
    /// Returns per class: (buffers held in stripes, demand, buffers the
    /// class allocated).
    fn demand_stress(thread_local_slots: bool) -> Vec<(usize, usize, usize)> {
        use std::sync::Arc;
        let mut cfg = PoolConfig::with_budget(64 << 20);
        cfg.num_classes = 6; // 64 ..= 2048 elements.
        cfg.thread_local_slots = thread_local_slots;
        let p: Arc<BufferPool<f32>> = Arc::new(BufferPool::new(cfg));
        p.set_observer(Arc::new(LastHit));
        let allocated: Arc<Vec<AtomicUsize>> =
            Arc::new((0..p.classes.len()).map(|_| AtomicUsize::new(0)).collect());
        let returns = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let (p, allocated, returns) =
                    (Arc::clone(&p), Arc::clone(&allocated), Arc::clone(&returns));
                std::thread::spawn(move || {
                    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ (t + 1).wrapping_mul(0x9E37);
                    let mut rng = move |n: u64| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % n
                    };
                    let mut held: Vec<Vec<f32>> = Vec::new();
                    for _ in 0..3000 {
                        match rng(8) {
                            0..=3 if held.len() < 4 => {
                                // 48..=3000 elements: every class, plus
                                // requests above the largest.
                                let want = 48 + rng(2953) as usize;
                                let ci = p.class_for_acquire(want).unwrap_or(p.classes.len() - 1);
                                let mut b = p.acquire(want);
                                if !LAST_HIT.with(|c| c.take()).expect("observed") {
                                    allocated[ci].fetch_add(1, Ordering::Relaxed);
                                }
                                b.resize(want, 1.0);
                                held.push(b);
                            }
                            4 => {
                                let cap = 64 << rng(7);
                                p.recycle(Vec::with_capacity(cap));
                                returns.fetch_add(1, Ordering::Relaxed);
                            }
                            _ if !held.is_empty() => {
                                let i = rng(held.len() as u64) as usize;
                                p.recycle(held.swap_remove(i));
                                returns.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {}
                        }
                    }
                    for b in held {
                        p.recycle(b);
                        returns.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.recycled + s.dropped, returns.load(Ordering::Relaxed));
        p.classes
            .iter()
            .zip(allocated.iter())
            .map(|(c, a)| {
                let held = c.stripes.iter().map(|s| s.lock().len()).sum();
                (
                    held,
                    c.demand.load(Ordering::Relaxed),
                    a.load(Ordering::Relaxed),
                )
            })
            .collect()
        // The pool drops here; under `--cfg minato_lock_graph` its
        // byte-accounting audit runs too.
    }

    #[test]
    fn concurrent_stress_never_holds_more_than_a_class_handed_out() {
        // Every buffer a class holds replaced one it handed out, and
        // each one handed out is either back in the class or still owed
        // as demand — foreign returns never add to it.
        for (ci, (held, demand, allocated)) in demand_stress(false).into_iter().enumerate() {
            assert_eq!(held + demand, allocated, "class {ci}");
        }
        // With fast slots, the buffers parked in the exited threads'
        // slots are gone from the count.
        for (ci, (held, demand, allocated)) in demand_stress(true).into_iter().enumerate() {
            assert!(
                held + demand <= allocated,
                "class {ci}: {held} + {demand} > {allocated}"
            );
        }
    }

    #[test]
    fn tiny_buffers_are_dropped() {
        let p = shared_pool(1 << 20);
        p.recycle(Vec::with_capacity(1)); // Below min_class_elems (64).
        assert_eq!(p.stats().dropped, 1);
    }

    #[test]
    fn acquire_filled_matches_vec_macro() {
        let p = pool(1 << 20);
        let a = p.acquire_filled(33, 7.0f32);
        assert_eq!(a, vec![7.0f32; 33]);
        p.recycle(a);
        let b = p.acquire_filled(33, 7.0f32);
        assert_eq!(
            b,
            vec![7.0f32; 33],
            "reused buffer is re-filled identically"
        );
    }

    #[test]
    fn guard_returns_on_drop_and_detach_keeps() {
        let p = pool(1 << 20);
        {
            let mut g = p.acquire_guard(128);
            g.push(1.0);
            assert_eq!(g.len(), 1);
        }
        assert_eq!(p.stats().recycled, 1);
        let g = p.acquire_guard(128);
        let kept = g.detach();
        assert!(kept.capacity() >= 128);
        assert_eq!(p.stats().recycled, 1, "detached buffer is not recycled");
    }

    #[test]
    fn dead_pool_fast_slots_are_swept() {
        // A long-lived thread recycling into many short-lived pools (a
        // fresh loader per epoch) must not accrete one parked buffer
        // per dead pool forever: inserting a new slot on a grown map
        // sweeps entries whose pool was dropped.
        for _ in 0..FAST_SLOT_SWEEP_THRESHOLD + 8 {
            let p = pool(1 << 20);
            let b = p.acquire(64);
            p.recycle(b); // Parks in this thread's fast slot.
        } // Pool dropped: its slot is now dead weight.
        let p = pool(1 << 20);
        let b = p.acquire(64);
        p.recycle(b);
        FAST_SLOTS.with(|slots| {
            let len = slots.borrow().len();
            // The sweep is amortized (it runs when an insert finds the
            // map at the threshold), so the live bound is the threshold
            // itself — not 72+ entries accreted across generations.
            assert!(
                len <= FAST_SLOT_SWEEP_THRESHOLD,
                "dead pools' fast slots must be swept: {len} entries remain"
            );
        });
    }

    #[test]
    fn concurrent_stress_keeps_bytes_under_budget() {
        use std::sync::Arc;
        let mut cfg = PoolConfig::with_budget(64 * 1024);
        cfg.thread_local_slots = false;
        let p: Arc<BufferPool<f32>> = Arc::new(BufferPool::new(cfg));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..500usize {
                        let want = 64 << ((t + i) % 6);
                        let mut b = p.acquire(want);
                        b.resize(want, 0.5);
                        assert!(p.stats().bytes <= 64 * 1024, "budget violated");
                        p.recycle(b);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = p.stats();
        assert!(s.bytes <= 64 * 1024);
        assert!(s.hits > 0, "steady-state traffic must reuse buffers");
    }

    /// Normal traffic — guards, detaches, shared-list round trips —
    /// must satisfy the drop-time audit.
    #[cfg(minato_lock_graph)]
    #[test]
    fn audit_passes_after_normal_traffic() {
        let p = shared_pool(1 << 20);
        let b = p.acquire(100);
        p.recycle(b);
        let g = p.acquire_guard(200);
        drop(g);
        let g = p.acquire_guard(300);
        let _kept = g.detach();
        drop(p); // Audit runs here; a mismatch panics.
    }

    /// A corrupted byte counter must trip the drop-time audit.
    #[cfg(minato_lock_graph)]
    #[test]
    fn audit_catches_corrupted_counter() {
        let p = shared_pool(1 << 20);
        let b = p.acquire(100);
        p.recycle(b);
        // Inflate the global counter behind the pool's back.
        p.bytes.fetch_add(4096, Ordering::AcqRel);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(p)))
            .expect_err("audit must panic on counter mismatch");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("pool audit"), "unexpected panic: {msg}");
    }
}
