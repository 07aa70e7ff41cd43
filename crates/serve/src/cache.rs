//! The design cache: a sharded, lock-striped, single-flight registry of finished
//! mechanism designs.
//!
//! Design is the expensive step of the request path — an LP solve can take
//! seconds while a draw takes nanoseconds — and it is perfectly amortizable:
//! real deployments ask for the same `(n, α, properties, objective)` design
//! millions of times.  The cache stores [`Arc<DesignedMechanism>`] artifacts
//! keyed by their bit-exact [`SpecKey`] and guarantees:
//!
//! * **lock striping** — keys hash to one of `shards` independent mutexes, so
//!   concurrent lookups of *different* hot keys never contend on one lock;
//! * **single flight** — concurrent requests for the same cold key trigger
//!   exactly one design; every other requester blocks on the in-flight entry
//!   (a condvar) and receives the shared result, success or failure;
//! * **bounded capacity** — each shard evicts its least-recently-used *ready*
//!   entry beyond its share of the capacity (in-flight entries are never
//!   evicted);
//! * **warm-up** — [`DesignCache::warm`] precomputes a declared key set on the
//!   [`cpm_eval::par`] worker pool before traffic arrives;
//! * **persistence** — [`DesignCache::save_snapshot`] serialises every resident
//!   design (the [`DesignedMechanism`] serde form is exact) and
//!   [`DesignCache::load_snapshot`] restores them in a fresh process, turning
//!   cold-start storms into a deploy-time cost.
//!
//! A design is a function of its key alone: [`SpecKey::spec`] and
//! [`cpm_core::MechanismSpec::design`] seed every LP from its own problem, never
//! from whatever else happens to be resident, so the served matrix does not
//! depend on which keys were warmed before it or in what order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cpm_core::{DesignedMechanism, SpecKey};

use crate::error::ServeError;

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The design was already resident.
    Hit,
    /// Another thread was already designing this key; we waited for its result.
    Coalesced,
    /// This thread performed the design (a cold miss).
    Designed,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a resident design.
    pub hits: u64,
    /// Lookups that waited on another thread's in-flight design.
    pub coalesced: u64,
    /// Lookups that found nothing and started a design.
    pub misses: u64,
    /// Designs completed successfully (closed form or LP).
    pub design_solves: u64,
    /// The subset of `design_solves` that ran the simplex.
    pub lp_solves: u64,
    /// Ready entries evicted to stay within capacity.
    pub evictions: u64,
    /// Designs restored from a snapshot instead of being computed.
    pub preloaded: u64,
    /// Always 0: a design seeds only from its own problem, never from
    /// another resident design.  Kept because the socket benchmark's trace
    /// reader reports it as `cache.warm_seeded`.
    pub warm_seeded: u64,
    /// Total wall-clock nanoseconds spent designing.
    pub design_nanos: u64,
    /// Ready entries currently resident.
    pub entries: usize,
}

enum Entry {
    Ready {
        design: Arc<DesignedMechanism>,
        last_used: u64,
    },
    InFlight(Arc<Flight>),
}

enum FlightState {
    Pending,
    Done(Result<Arc<DesignedMechanism>, ServeError>),
}

struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    fn finish(&self, result: Result<Arc<DesignedMechanism>, ServeError>) {
        let mut state = self.state.lock().expect("flight state poisoned");
        *state = FlightState::Done(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<DesignedMechanism>, ServeError> {
        let mut state = self.state.lock().expect("flight state poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.done.wait(state).expect("flight state poisoned");
                }
                FlightState::Done(result) => return result.clone(),
            }
        }
    }
}

/// Releases waiters and clears the in-flight entry if the designing thread dies
/// before publishing a result — without this, a panic inside the LP would leave
/// every coalesced requester blocked forever and the key permanently wedged.
struct FlightGuard<'a> {
    cache: &'a DesignCache,
    shard: usize,
    key: SpecKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.remove_in_flight(self.shard, &self.key);
            self.flight
                .finish(Err(ServeError::DesignPanicked { key: self.key }));
            cpm_obs::error(
                "cache",
                format!("design panicked for key {}; waiters released", self.key),
            );
            cpm_obs::flight::dump("design cache poisoning");
        }
    }
}

struct Shard {
    entries: HashMap<SpecKey, Entry>,
    /// This stripe's `cpm_cache_shard_resident{shard="i"}` gauge, resolved
    /// once at construction so a publish never formats a name or takes the
    /// registry lock.
    resident_gauge: &'static cpm_obs::Gauge,
}

impl Shard {
    fn ready_len(&self) -> usize {
        self.entries
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
    }

    /// Mirror this stripe's ready-entry count to its gauge.  The label set
    /// is closed — the stripe count is fixed at construction — so the
    /// registry cannot grow without bound.  Called at every residency change
    /// while the stripe's lock is held, so the gauge never drifts from the
    /// map.
    fn publish_resident(&self) {
        self.resident_gauge.set(self.ready_len() as i64);
    }
}

/// The sharded, single-flight, LRU-bounded design registry.
pub struct DesignCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    /// Ready entries currently resident, maintained at every residency change
    /// so [`DesignCache::len`] and [`DesignCache::stats`] (and metrics scrapes
    /// through it) never walk the stripes taking every shard lock — the design
    /// hot path and the monitoring path share no locks at all.
    resident: AtomicU64,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    design_solves: AtomicU64,
    lp_solves: AtomicU64,
    evictions: AtomicU64,
    preloaded: AtomicU64,
    design_nanos: AtomicU64,
}

/// Lock stripes of a [`DesignCache`].
const SHARDS: usize = 16;

impl DesignCache {
    /// A cache bounded by `capacity` designs across its lock stripes.  The
    /// bound is enforced per stripe as `ceil(capacity / stripes)` (at least
    /// 1), so the exact resident maximum is what [`DesignCache::capacity`]
    /// reports — up to `stripes − 1` above the request when it does not
    /// divide evenly.
    pub fn new(capacity: usize) -> Self {
        Self::striped(capacity, SHARDS)
    }

    /// [`DesignCache::new`] over `shards` stripes (at least 1); the tests
    /// use one stripe, where the bound is an exact LRU.
    fn striped(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        DesignCache {
            shards: (0..shards)
                .map(|shard| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        resident_gauge: cpm_obs::registry()
                            .gauge(&format!("cpm_cache_shard_resident{{shard=\"{shard}\"}}")),
                    })
                })
                .collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            design_solves: AtomicU64::new(0),
            lp_solves: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
            design_nanos: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &SpecKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Fetch the design for `key`, computing it (once, globally) on a miss.
    pub fn get(&self, key: &SpecKey) -> Result<Arc<DesignedMechanism>, ServeError> {
        self.get_with_outcome(key).map(|(design, _)| design)
    }

    /// The lock-and-look fast path: return the design if it is already resident,
    /// bumping its LRU tick and the hit counter.  Never waits and never designs
    /// — a cold or in-flight key returns `None`, and the caller decides whether
    /// to block on [`DesignCache::get`].  Warm batches resolve entirely through
    /// this path, without touching the worker pool.
    pub fn peek(&self, key: &SpecKey) -> Option<Arc<DesignedMechanism>> {
        let shard_index = self.shard_of(key);
        let mut shard = self.shards[shard_index].lock().expect("shard poisoned");
        match shard.entries.get_mut(key) {
            Some(Entry::Ready { design, last_used }) => {
                *last_used = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                cpm_obs::counter!("cpm_cache_hits_total").inc();
                Some(Arc::clone(design))
            }
            _ => None,
        }
    }

    /// [`DesignCache::get`], additionally reporting how the lookup was satisfied.
    pub fn get_with_outcome(
        &self,
        key: &SpecKey,
    ) -> Result<(Arc<DesignedMechanism>, Lookup), ServeError> {
        enum Action {
            Wait(Arc<Flight>),
            Design(Arc<Flight>),
        }
        let shard_index = self.shard_of(key);
        // Decide under the stripe lock, but design/wait outside it.
        let action = {
            let mut shard = self.shards[shard_index].lock().expect("shard poisoned");
            match shard.entries.get_mut(key) {
                Some(Entry::Ready { design, last_used }) => {
                    *last_used = self.next_tick();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    cpm_obs::counter!("cpm_cache_hits_total").inc();
                    return Ok((Arc::clone(design), Lookup::Hit));
                }
                Some(Entry::InFlight(flight)) => {
                    // Single flight: somebody else is already designing this key.
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    cpm_obs::counter!("cpm_cache_coalesced_total").inc();
                    Action::Wait(Arc::clone(flight))
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    cpm_obs::counter!("cpm_cache_misses_total").inc();
                    let flight = Arc::new(Flight::new());
                    shard
                        .entries
                        .insert(*key, Entry::InFlight(Arc::clone(&flight)));
                    Action::Design(flight)
                }
            }
        };
        match action {
            Action::Wait(flight) => {
                let wait_started = std::time::Instant::now();
                let waited = flight.wait();
                cpm_obs::histogram!("cpm_cache_wait_nanos").record_duration(wait_started.elapsed());
                waited.map(|design| (design, Lookup::Coalesced))
            }
            Action::Design(flight) => self
                .design_and_publish(shard_index, key, flight)
                .map(|design| (design, Lookup::Designed)),
        }
    }

    /// Run the design for `key` outside any shard lock, then publish the result
    /// to the map and to every coalesced waiter.  The key's default-tuned
    /// [`cpm_core::MechanismSpec`] routes `L0` requests through the Figure-5
    /// flowchart (closed forms whenever it can) and other objectives through
    /// the constrained LP.
    fn design_and_publish(
        &self,
        shard_index: usize,
        key: &SpecKey,
        flight: Arc<Flight>,
    ) -> Result<Arc<DesignedMechanism>, ServeError> {
        let mut guard = FlightGuard {
            cache: self,
            shard: shard_index,
            key: *key,
            flight: Arc::clone(&flight),
            armed: true,
        };
        let result = key
            .spec()
            .design()
            .map_err(|source| ServeError::Design { key: *key, source });
        guard.armed = false;
        drop(guard);
        match result {
            Ok(design) => {
                let design = Arc::new(design);
                self.design_solves.fetch_add(1, Ordering::Relaxed);
                if design.used_lp() {
                    self.lp_solves.fetch_add(1, Ordering::Relaxed);
                }
                self.design_nanos
                    .fetch_add(design.design_time().as_nanos() as u64, Ordering::Relaxed);
                self.publish(shard_index, key, Arc::clone(&design));
                flight.finish(Ok(Arc::clone(&design)));
                Ok(design)
            }
            Err(error) => {
                // Clear the key so a later request retries, then release waiters.
                self.remove_in_flight(shard_index, key);
                flight.finish(Err(error.clone()));
                Err(error)
            }
        }
    }

    /// Insert a ready design into its shard (used by both the design path and
    /// the snapshot loader) and evict over capacity.
    fn publish(&self, shard_index: usize, key: &SpecKey, design: Arc<DesignedMechanism>) {
        let mut shard = self.shards[shard_index].lock().expect("shard poisoned");
        let previous = shard.entries.insert(
            *key,
            Entry::Ready {
                design,
                last_used: self.next_tick(),
            },
        );
        // Only the designing thread publishes, over its own in-flight marker,
        // so the insert always adds exactly one ready entry to the count.
        debug_assert!(matches!(previous, Some(Entry::InFlight(_))));
        let evicted = self.evict_over_capacity(&mut shard);
        shard.publish_resident();
        drop(shard);
        self.add_resident(1 - evicted as i64);
    }

    /// Fold a residency delta into the lock-free counter and mirror it to the
    /// live gauge.
    fn add_resident(&self, delta: i64) {
        let now = if delta >= 0 {
            self.resident.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            self.resident.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
        };
        cpm_obs::gauge!("cpm_cache_resident_entries").set(now as i64);
    }

    fn remove_in_flight(&self, shard_index: usize, key: &SpecKey) {
        let mut shard = self.shards[shard_index].lock().expect("shard poisoned");
        if matches!(shard.entries.get(key), Some(Entry::InFlight(_))) {
            shard.entries.remove(key);
        }
    }

    /// Evict least-recently-used ready entries until the shard fits its share of
    /// the capacity.  In-flight entries are never evicted, and the entry just
    /// touched carries the freshest tick, so it survives.  Returns how many
    /// entries were evicted.
    fn evict_over_capacity(&self, shard: &mut Shard) -> usize {
        let mut evicted = 0;
        while shard.ready_len() > self.per_shard_capacity {
            let victim = shard
                .entries
                .iter()
                .filter_map(|(key, entry)| match entry {
                    Entry::Ready { last_used, .. } => Some((*key, *last_used)),
                    Entry::InFlight(_) => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(key, _)| key);
            match victim {
                Some(key) => {
                    shard.entries.remove(&key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    cpm_obs::counter!("cpm_cache_evictions_total").inc();
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Precompute the designs for a declared key set, fanning the cold solves out
    /// across the [`cpm_eval::par`] worker pool.  Returns the designs in key
    /// order.  On failure the *first* key's error is reported — after the whole
    /// set has been attempted — and the keys that did design stay resident.
    ///
    /// The pool claims keys largest group size first (a stable order, ties
    /// kept in list order): design cost grows steeply with `n`, so the
    /// slowest solve starts at once instead of after the small ones, which
    /// shortens the set's wall-clock whenever there is more than one worker.
    pub fn warm(&self, keys: &[SpecKey]) -> Result<Vec<Arc<DesignedMechanism>>, ServeError> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&index| std::cmp::Reverse(keys[index].n));
        let mut designed =
            cpm_eval::par::parallel_map(order, |index| (index, self.get(&keys[index])));
        designed.sort_unstable_by_key(|&(index, _)| index);
        designed.into_iter().map(|(_, design)| design).collect()
    }

    /// Every resident design, sorted by key so the order (and any snapshot
    /// written from it) is deterministic.
    pub fn resident_designs(&self) -> Vec<Arc<DesignedMechanism>> {
        let mut designs: Vec<Arc<DesignedMechanism>> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.lock().expect("shard poisoned");
                shard
                    .entries
                    .values()
                    .filter_map(|entry| match entry {
                        Entry::Ready { design, .. } => Some(Arc::clone(design)),
                        Entry::InFlight(_) => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        designs.sort_by_key(|design| design.key());
        designs
    }

    /// Serialise every resident design as a JSON snapshot.  Returns how many
    /// designs were written.  Reloading the snapshot with
    /// [`DesignCache::load_snapshot`] restores them exactly (the
    /// [`DesignedMechanism`] serde form is bit-exact).
    pub fn save_snapshot<W: io::Write>(&self, writer: &mut W) -> io::Result<usize> {
        let designs = self.resident_designs();
        write_designs(writer, &designs)?;
        Ok(designs.len())
    }

    /// Restore designs from a JSON snapshot written by
    /// [`DesignCache::save_snapshot`].  Each design is validated on the way in
    /// (matrix dimensions and column stochasticity) and inserted under its own
    /// [`SpecKey`]; keys already resident or in flight are left untouched, and
    /// a shard already at capacity skips further inserts rather than evicting
    /// (a snapshot must never push out live entries, and a skipped design must
    /// not be reported as restored).  Returns how many designs became
    /// resident.  Loaded designs count as [`CacheStats::preloaded`], not as
    /// hits, misses, or solves — so a cache serving its first request entirely
    /// from a snapshot reports zero `lp_solves`.
    pub fn load_snapshot<R: io::Read>(&self, reader: &mut R) -> Result<usize, ServeError> {
        let mut text = String::new();
        reader
            .read_to_string(&mut text)
            .map_err(|e| ServeError::Snapshot(format!("reading snapshot: {e}")))?;
        let designs: Vec<DesignedMechanism> = serde_json::from_str(&text)
            .map_err(|e| ServeError::Snapshot(format!("parsing snapshot: {e}")))?;
        let total = designs.len();
        let mut inserted: usize = 0;
        for design in designs {
            let key = design.key();
            let shard_index = self.shard_of(&key);
            let mut shard = self.shards[shard_index].lock().expect("shard poisoned");
            if shard.entries.contains_key(&key) || shard.ready_len() >= self.per_shard_capacity {
                continue;
            }
            shard.entries.insert(
                key,
                Entry::Ready {
                    design: Arc::new(design),
                    last_used: self.next_tick(),
                },
            );
            shard.publish_resident();
            inserted += 1;
        }
        self.add_resident(inserted as i64);
        if inserted < total {
            eprintln!(
                "cpm-serve: snapshot held {total} design(s) but only {inserted} fit the \
                 cache capacity ({}); the rest will design on first request",
                self.capacity()
            );
        }
        self.preloaded.fetch_add(inserted as u64, Ordering::Relaxed);
        Ok(inserted)
    }

    /// [`DesignCache::save_snapshot`] to a file path, written atomically: the
    /// snapshot goes to a `.tmp` sibling first and is renamed into place, so a
    /// crash mid-write can never leave a truncated file where a good snapshot
    /// (or no file at all) used to be.
    pub fn save_snapshot_file<P: AsRef<Path>>(&self, path: P) -> io::Result<usize> {
        let designs = self.resident_designs();
        write_designs_file(path.as_ref(), &designs)?;
        Ok(designs.len())
    }

    /// [`DesignCache::save_snapshot_file`], but designs already in the file
    /// that are *not* resident (evicted, or skipped at load because they did
    /// not fit the capacity) are carried over instead of discarded — a smaller
    /// cache must never shrink the snapshot it was warmed from.  Resident
    /// designs win on key collisions; an unreadable existing file contributes
    /// nothing.  Returns the number of designs in the merged snapshot.
    ///
    /// Concurrent savers (several processes sharing one `CPM_WARM_FILE`) are
    /// serialised through an advisory `.lock` sibling file, closing the
    /// read-modify-write race in which two merges interleave between
    /// `read_to_string` and the tmp-rename and silently drop each other's
    /// entries.  A lock left behind by a crashed process is broken after a
    /// grace period, so the save can stall but never deadlock.
    pub fn save_snapshot_file_merging<P: AsRef<Path>>(&self, path: P) -> io::Result<usize> {
        let path = path.as_ref();
        let _lock = SnapshotLock::acquire(path)?;
        let mut merged: Vec<Arc<DesignedMechanism>> = self.resident_designs();
        let resident: std::collections::HashSet<SpecKey> =
            merged.iter().map(|design| design.key()).collect();
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(existing) = serde_json::from_str::<Vec<DesignedMechanism>>(&text) {
                merged.extend(
                    existing
                        .into_iter()
                        .filter(|design| !resident.contains(&design.key()))
                        .map(Arc::new),
                );
            }
        }
        merged.sort_by_key(|design| design.key());
        write_designs_file(path, &merged)?;
        Ok(merged.len())
    }

    /// [`DesignCache::load_snapshot`] from a file path.
    pub fn load_snapshot_file<P: AsRef<Path>>(&self, path: P) -> Result<usize, ServeError> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| ServeError::Snapshot(format!("opening snapshot: {e}")))?;
        self.load_snapshot(&mut file)
    }

    /// Number of ready designs currently resident, read from the lock-free
    /// residency counter.  Every insert and removal of a ready entry adjusts
    /// the counter right after releasing its shard lock, so the count is
    /// exact whenever no publish, snapshot load or clear is in progress.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed) as usize
    }

    /// Whether no designs are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (summed over stripes).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Drop every ready entry (in-flight designs are left to finish).  Used by
    /// probes to reproduce cold-start behaviour within one process.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            let before = shard.entries.len();
            shard
                .entries
                .retain(|_, entry| matches!(entry, Entry::InFlight(_)));
            let removed = before - shard.entries.len();
            shard.publish_resident();
            drop(shard);
            self.add_resident(-(removed as i64));
        }
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            design_solves: self.design_solves.load(Ordering::Relaxed),
            lp_solves: self.lp_solves.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
            warm_seeded: 0,
            design_nanos: self.design_nanos.load(Ordering::Relaxed),
            entries: self.resident.load(Ordering::Relaxed) as usize,
        }
    }
}

impl std::fmt::Debug for DesignCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Serialise a design list through references — no deep clones of the matrices.
fn write_designs<W: io::Write>(
    writer: &mut W,
    designs: &[Arc<DesignedMechanism>],
) -> io::Result<()> {
    let by_ref: Vec<&DesignedMechanism> = designs.iter().map(|d| &**d).collect();
    let text = serde_json::to_string(&by_ref)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

/// Advisory cross-process lock around a snapshot file: a `.lock` sibling
/// created with `create_new` (atomic on every platform the workspace targets).
/// Held for the duration of a read-merge-write; removed on drop.  If the lock
/// cannot be acquired within [`SnapshotLock::STALE_AFTER`] it is presumed
/// abandoned by a crashed process and broken — snapshot saves are an
/// optimisation and must stall briefly at worst, never deadlock a server.
struct SnapshotLock {
    path: std::path::PathBuf,
}

impl SnapshotLock {
    /// How long to wait on a contended lock before presuming its holder died.
    /// Real merges take milliseconds; a multi-second hold is a crashed owner.
    const STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(10);

    fn acquire(snapshot_path: &Path) -> io::Result<SnapshotLock> {
        let mut lock_name = snapshot_path.as_os_str().to_owned();
        lock_name.push(".lock");
        let path = std::path::PathBuf::from(lock_name);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(SnapshotLock { path }),
                Err(error) if error.kind() == io::ErrorKind::AlreadyExists => {
                    // Staleness is judged by the lock *file's* age, not by how
                    // long this waiter has been waiting: a per-waiter deadline
                    // would let two waiters break (and then share) a lock a
                    // third process just legitimately re-acquired.  A fresh
                    // lock — including one created by another waiter a moment
                    // ago — is always respected.
                    let age = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|modified| modified.elapsed().ok());
                    match age {
                        Some(age) if age >= Self::STALE_AFTER => {
                            // Presumed abandoned by a crashed process.
                            // Re-stat immediately before removing so a racing
                            // breaker that already replaced the stale file
                            // with its own fresh lock is (almost) never
                            // robbed; the residual stat-to-remove window is
                            // nanoseconds wide, needs a crashed holder plus
                            // two breakers inside it, and even then degrades
                            // to the pre-lock behaviour (a lost merge), not
                            // corruption — the write itself stays atomic.
                            let still_stale = std::fs::metadata(&path)
                                .and_then(|m| m.modified())
                                .ok()
                                .and_then(|modified| modified.elapsed().ok())
                                .is_some_and(|a| a >= Self::STALE_AFTER);
                            if still_stale {
                                let _ = std::fs::remove_file(&path);
                                eprintln!(
                                    "cpm-serve: broke stale snapshot lock {} (age {age:?})",
                                    path.display(),
                                );
                            }
                        }
                        // Missing metadata means the holder just released (or
                        // a breaker just removed it) — retry immediately.
                        None => {}
                        _ => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                }
                Err(error) => return Err(error),
            }
        }
    }
}

impl Drop for SnapshotLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Atomic file write: `.tmp` sibling + rename, so a crash mid-write can never
/// leave a truncated snapshot behind.  Shared with the offline tooling.
fn write_designs_file(path: &Path, designs: &[Arc<DesignedMechanism>]) -> io::Result<()> {
    crate::snapshot::write_file(path, designs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, ObjectiveKey, Property, PropertySet};

    fn gm_key(n: usize) -> SpecKey {
        SpecKey::new(n, Alpha::new(0.5).unwrap(), PropertySet::empty())
    }

    #[test]
    fn hit_after_miss_returns_the_same_design() {
        let cache = DesignCache::new(8);
        let key = gm_key(6);
        let (first, outcome) = cache.get_with_outcome(&key).unwrap();
        assert_eq!(outcome, Lookup::Designed);
        let (second, outcome) = cache.get_with_outcome(&key).unwrap();
        assert_eq!(outcome, Lookup::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.design_solves), (1, 1, 1));
        assert_eq!(stats.lp_solves, 0, "GM at alpha=0.5 is closed form");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_eviction_keeps_the_most_recent_keys() {
        // One stripe so the LRU order is global and observable.
        let cache = DesignCache::striped(2, 1);
        let keys: Vec<SpecKey> = (2..6).map(gm_key).collect();
        for key in &keys {
            cache.get(key).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
        // The two most recent keys are hits; the two oldest were evicted.
        cache.get(&keys[3]).unwrap();
        cache.get(&keys[2]).unwrap();
        assert_eq!(cache.stats().misses, 4, "recent keys are still resident");
        cache.get(&keys[0]).unwrap();
        assert_eq!(cache.stats().misses, 5, "oldest key was evicted");
    }

    #[test]
    fn design_errors_are_returned_and_the_key_is_retryable() {
        let cache = DesignCache::new(4);
        // Group size 0 is invalid, so the design fails.
        let bad = SpecKey::new(0, Alpha::new(0.9).unwrap(), PropertySet::empty());
        let error = cache.get(&bad).unwrap_err();
        assert!(matches!(error, ServeError::Design { .. }));
        assert_eq!(cache.len(), 0, "failed design leaves nothing resident");
        // The key is retryable (still a miss, still the same error).
        assert!(cache.get(&bad).is_err());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn warm_precomputes_the_declared_key_set() {
        let cache = DesignCache::new(16);
        let alpha = Alpha::new(0.9).unwrap();
        let keys = vec![
            SpecKey::new(4, alpha, PropertySet::empty()),
            SpecKey::new(4, alpha, PropertySet::empty().with(Property::Fairness)),
            SpecKey::new(6, alpha, PropertySet::empty().with(Property::WeakHonesty)),
        ];
        let designs = cache.warm(&keys).unwrap();
        assert_eq!(designs.len(), 3);
        assert_eq!(cache.len(), 3);
        // Warm again: all hits, no new designs.
        cache.warm(&keys).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.design_solves, 3);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn warm_returns_designs_and_the_first_error_in_input_order() {
        // The pool schedules the largest n first; the results must still line
        // up with the caller's list, whatever its order.
        let cache = DesignCache::new(16);
        let keys: Vec<SpecKey> = [5, 12, 3, 9, 7, 12, 4].into_iter().map(gm_key).collect();
        let designs = cache.warm(&keys).unwrap();
        assert_eq!(designs.len(), keys.len());
        for (key, design) in keys.iter().zip(&designs) {
            assert_eq!(design.key(), *key);
        }
        // Two failing keys: the one earlier in the list is reported, even
        // though the larger one is scheduled first.
        let cache = DesignCache::new(16);
        let alpha = Alpha::new(0.9).unwrap();
        let bad = |n| {
            SpecKey::with_objective(
                n,
                alpha,
                PropertySet::empty(),
                ObjectiveKey::L0Beyond(n + 1),
            )
        };
        let keys = vec![gm_key(3), bad(2), gm_key(6), bad(8)];
        let error = cache.warm(&keys).unwrap_err();
        assert!(
            matches!(error, ServeError::Design { key, .. } if key == keys[1]),
            "{error}"
        );
        assert_eq!(cache.len(), 2, "the keys that designed stay resident");
    }

    #[test]
    fn non_l0_objectives_solve_the_lp_directly() {
        let cache = DesignCache::new(4);
        let key = SpecKey::with_objective(
            4,
            Alpha::new(0.9).unwrap(),
            PropertySet::empty(),
            ObjectiveKey::L1,
        );
        let design = cache.get(&key).unwrap();
        assert!(design.choice().is_none());
        assert!(design.used_lp());
        assert_eq!(cache.stats().lp_solves, 1);
        assert!(design
            .mechanism()
            .satisfies_dp(Alpha::new(0.9).unwrap(), 1e-6));
    }

    #[test]
    fn snapshots_round_trip_within_one_process() {
        let cache = DesignCache::new(16);
        let alpha = Alpha::new(0.9).unwrap();
        let keys = vec![
            gm_key(5),
            SpecKey::new(4, alpha, PropertySet::empty().with(Property::Fairness)),
        ];
        cache.warm(&keys).unwrap();

        let mut buffer = Vec::new();
        assert_eq!(cache.save_snapshot(&mut buffer).unwrap(), 2);

        let fresh = DesignCache::new(16);
        assert_eq!(fresh.load_snapshot(&mut &buffer[..]).unwrap(), 2);
        assert_eq!(fresh.stats().preloaded, 2);
        assert_eq!(fresh.len(), 2);

        // Every key is a pure hit in the fresh cache: zero design work.
        for key in &keys {
            let (restored, outcome) = fresh.get_with_outcome(key).unwrap();
            assert_eq!(outcome, Lookup::Hit);
            let original = cache.get(key).unwrap();
            assert_eq!(
                restored.mechanism().entries(),
                original.mechanism().entries(),
                "snapshot restores the matrix bit-for-bit"
            );
        }
        let stats = fresh.stats();
        assert_eq!(stats.design_solves, 0);
        assert_eq!(stats.lp_solves, 0);
        assert_eq!(stats.misses, 0);

        // Reloading the same snapshot is a no-op (keys already resident).
        assert_eq!(fresh.load_snapshot(&mut &buffer[..]).unwrap(), 0);
    }

    #[test]
    fn oversized_snapshots_report_only_what_fits_and_never_evict() {
        // Warm 5 designs into a roomy cache, snapshot them, then load into a
        // single-stripe cache of capacity 2 that already holds one live entry.
        let source = DesignCache::striped(16, 1);
        let keys: Vec<SpecKey> = (2..7).map(gm_key).collect();
        source.warm(&keys).unwrap();
        let mut buffer = Vec::new();
        assert_eq!(source.save_snapshot(&mut buffer).unwrap(), 5);

        let small = DesignCache::striped(2, 1);
        let live = gm_key(10);
        small.get(&live).unwrap();
        let inserted = small.load_snapshot(&mut &buffer[..]).unwrap();
        assert_eq!(inserted, 1, "one free slot, one insert reported");
        assert_eq!(small.len(), 2);
        assert_eq!(small.stats().preloaded, 1);
        assert_eq!(small.stats().evictions, 0, "snapshots never evict");
        // The live entry survived the load.
        assert!(small.peek(&live).is_some());
    }

    #[test]
    fn merging_saves_never_shrink_the_snapshot() {
        let path =
            std::env::temp_dir().join(format!("cpm-cache-merge-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // A roomy cache writes 4 designs.
        let source = DesignCache::striped(16, 1);
        let keys: Vec<SpecKey> = (2..6).map(gm_key).collect();
        source.warm(&keys).unwrap();
        assert_eq!(source.save_snapshot_file(&path).unwrap(), 4);

        // A capacity-2 cache loads what fits, designs a fresh key, and saves
        // with merging: the designs that never fit must survive on disk.
        let small = DesignCache::striped(2, 1);
        assert_eq!(small.load_snapshot_file(&path).unwrap(), 2);
        small.get(&gm_key(9)).unwrap(); // evicts one resident entry
        let merged = small.save_snapshot_file_merging(&path).unwrap();
        assert_eq!(merged, 5, "4 originals + 1 fresh design");

        let check = DesignCache::striped(16, 1);
        assert_eq!(check.load_snapshot_file(&path).unwrap(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_files_are_written_atomically() {
        let cache = DesignCache::new(8);
        cache.get(&gm_key(4)).unwrap();
        let path =
            std::env::temp_dir().join(format!("cpm-cache-snapshot-{}.json", std::process::id()));
        assert_eq!(cache.save_snapshot_file(&path).unwrap(), 1);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::PathBuf::from(tmp).exists(),
            "temp file renamed away"
        );
        let fresh = DesignCache::new(8);
        assert_eq!(fresh.load_snapshot_file(&path).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn per_shard_residency_gauges_are_published() {
        // The registry is process-global and other tests' caches write the
        // same `shard="i"` labels concurrently, so this asserts the family
        // exists after traffic (exact per-stripe values are covered by the
        // spawned-server smoke tests, where the process is ours alone).
        let cache = DesignCache::striped(8, 2);
        let keys: Vec<SpecKey> = (2..6).map(gm_key).collect();
        for key in &keys {
            cache.get(key).unwrap();
        }
        cache.clear();
        let exposition = cpm_obs::registry().render();
        assert!(
            exposition.contains("cpm_cache_shard_resident{shard=\"0\"}")
                && exposition.contains("cpm_cache_shard_resident{shard=\"1\"}"),
            "per-shard gauge family missing from:\n{exposition}"
        );
    }

    #[test]
    fn len_counter_matches_the_stripe_walk() {
        // `len()` reads the residency counter; `resident_designs()` walks
        // every stripe under its lock.  They must agree after every kind of
        // residency change.
        fn agree(cache: &DesignCache, step: &str) -> usize {
            let walked = cache.resident_designs().len();
            assert_eq!(cache.len(), walked, "after {step}");
            walked
        }
        // One stripe, so the capacity bound (and every eviction) is global.
        let cache = DesignCache::striped(4, 1);
        let keys: Vec<SpecKey> = (2..6).map(gm_key).collect();
        cache.warm(&keys).unwrap();
        assert_eq!(agree(&cache, "warm"), 4);

        cache.get(&gm_key(7)).unwrap();
        cache.get(&gm_key(8)).unwrap();
        assert_eq!(cache.stats().evictions, 2, "capacity 4 holds 6 keys");
        assert_eq!(agree(&cache, "capacity eviction"), 4);

        let mut buffer = Vec::new();
        cache.save_snapshot(&mut buffer).unwrap();
        let small = DesignCache::striped(2, 1);
        small.get(&gm_key(10)).unwrap();
        assert_eq!(small.load_snapshot(&mut &buffer[..]).unwrap(), 1);
        assert_eq!(agree(&small, "partial snapshot load"), 2);

        cache.clear();
        assert_eq!(agree(&cache, "clear"), 0);

        let bad = SpecKey::new(0, Alpha::new(0.9).unwrap(), PropertySet::empty());
        assert!(cache.get(&bad).is_err());
        assert_eq!(agree(&cache, "failed design"), 0);
        cache.get(&gm_key(3)).unwrap();
        assert!(cache.get(&bad).is_err());
        assert_eq!(agree(&cache, "failed design beside a resident key"), 1);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let cache = DesignCache::new(4);
        assert!(matches!(
            cache.load_snapshot(&mut "not json".as_bytes()),
            Err(ServeError::Snapshot(_))
        ));
        assert_eq!(cache.len(), 0);
    }
}
