//! The sharded content-addressed result cache with single-flight
//! coalescing.
//!
//! Every cell key is a content hash over (code version, machine-spec
//! digest, campaign digest) — see `doebench::query` — and cell values
//! are pure functions of exactly those inputs, so an entry, once
//! computed, is valid forever. The cache therefore has no TTLs and no
//! wall-clock anywhere (the dessan `wall-clock` rule bans time sources
//! from this crate); the only invalidation is *precise* invalidation, which
//! happens for free: changing a machine parameter changes that
//! machine's spec digest, which changes only the keys of cells that
//! depend on it, so the stale entries are simply never addressed again.
//!
//! Concurrency is single-flight: the first thread to miss on a key
//! becomes its **owner** and computes the value; threads that arrive
//! while the computation is in flight become **waiters** on the same
//! [`Flight`] and block on its condvar rather than duplicating work.
//! The state machine per slot:
//!
//! ```text
//!              lookup miss                 publish(value)
//!   (absent) ──────────────▶ InFlight ────────────────────▶ Ready
//!                              │  ▲                           │
//!                   owner drops│  │ next lookup re-owns       │ lookup hit
//!                  w/o publish ▼  │                           ▼
//!                            (absent)                   value cloned out
//! ```
//!
//! Owner panics are survivable: [`OwnerToken`]'s `Drop` aborts the
//! flight if it was never published, waking waiters with `None` so they
//! can re-acquire (and one of them becomes the new owner).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of independently locked shards. Shard choice hashes the key,
/// so unrelated cells never contend on one mutex.
const SHARDS: usize = 16;

/// A cache key: the full canonical string plus its FNV hash. Equality
/// is on the string (the hash is a router, not an identity — two keys
/// that collide in 64 bits still occupy distinct entries).
#[derive(Clone, Debug)]
pub struct Key {
    /// Canonical key text (`cell/v=…/t=…/m=…/spec=…/camp=…`).
    pub canon: Arc<str>,
    /// FNV-1a of `canon`; selects the shard.
    pub hash: u64,
}

impl Key {
    /// Build from a canonical string, hashing it for shard routing.
    pub fn new(canon: &str) -> Key {
        Key {
            canon: Arc::from(canon),
            hash: doebench::query::fnv1a64(canon.as_bytes()),
        }
    }
}

/// The in-flight rendezvous for one key (opaque: waiters hand it back
/// to [`Cache::wait`]).
pub struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

enum FlightState<V> {
    Pending,
    /// Owner finished: `Some` published a value, `None` aborted.
    Finished(Option<V>),
}

/// One slot of a shard map.
enum Slot<V> {
    Ready(V),
    InFlight(Arc<Flight<V>>),
}

/// What [`Cache::acquire`] hands back.
pub enum Acquire<V> {
    /// The value was cached; cloned out under the shard lock.
    Hit(V),
    /// This thread owns the computation; it must call
    /// [`OwnerToken::publish`] (drop aborts and wakes waiters).
    Owner(OwnerToken<V>),
    /// Another thread owns an identical in-flight computation.
    Waiter(Arc<Flight<V>>),
}

/// Proof of computation ownership for one key.
pub struct OwnerToken<V> {
    cache: Arc<CacheInner<V>>,
    key: Key,
    flight: Arc<Flight<V>>,
    published: bool,
}

impl<V: Clone> OwnerToken<V> {
    /// Install the computed value and wake all waiters.
    pub fn publish(mut self, value: V) {
        self.published = true;
        self.cache.install(&self.key, value.clone());
        let mut st = self.flight.state.lock().unwrap();
        *st = FlightState::Finished(Some(value));
        drop(st);
        self.flight.done.notify_all();
    }
}

impl<V> Drop for OwnerToken<V> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Owner died without publishing (panic in the benchmark code):
        // clear the slot so a later lookup re-owns it, and wake waiters
        // with an abort so they retry instead of blocking forever.
        self.cache.evict_inflight(&self.key, &self.flight);
        let mut st = self.flight.state.lock().unwrap();
        *st = FlightState::Finished(None);
        drop(st);
        self.flight.done.notify_all();
    }
}

/// Monotonic cache statistics (exported on `/stats` and echoed in
/// response headers).
#[derive(Default)]
pub struct Stats {
    /// Cells answered from the cache.
    pub hits: AtomicU64,
    /// Cells computed by an owner.
    pub executed: AtomicU64,
    /// Cells answered by waiting on another request's computation.
    pub coalesced: AtomicU64,
}

struct CacheInner<V> {
    shards: Vec<Mutex<HashMap<Arc<str>, Slot<V>>>>,
}

impl<V> CacheInner<V> {
    fn shard(&self, key: &Key) -> &Mutex<HashMap<Arc<str>, Slot<V>>> {
        &self.shards[(key.hash % SHARDS as u64) as usize]
    }

    fn install(&self, key: &Key, value: V) {
        let mut map = self.shard(key).lock().unwrap();
        map.insert(Arc::clone(&key.canon), Slot::Ready(value));
    }

    fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {
        let mut map = self.shard(key).lock().unwrap();
        if let Some(Slot::InFlight(f)) = map.get(&key.canon) {
            if Arc::ptr_eq(f, flight) {
                map.remove(&key.canon);
            }
        }
    }
}

/// The sharded single-flight cache.
pub struct Cache<V> {
    inner: Arc<CacheInner<V>>,
    /// Hit/executed/coalesced counters.
    pub stats: Stats,
}

impl<V: Clone> Cache<V> {
    /// An empty cache.
    pub fn new() -> Cache<V> {
        Cache {
            inner: Arc::new(CacheInner {
                shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            }),
            stats: Stats::default(),
        }
    }

    /// Look up a key, claiming ownership of the computation on a cold
    /// miss. Does not block; waiters block later, in [`Cache::wait`].
    // doebench::effects(no-block)
    pub fn acquire(&self, key: &Key) -> Acquire<V> {
        let mut map = self.inner.shard(key).lock().unwrap();
        match map.get(&key.canon) {
            Some(Slot::Ready(v)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Acquire::Hit(v.clone())
            }
            Some(Slot::InFlight(f)) => {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                Acquire::Waiter(Arc::clone(f))
            }
            None => {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Pending),
                    done: Condvar::new(),
                });
                map.insert(Arc::clone(&key.canon), Slot::InFlight(Arc::clone(&flight)));
                self.stats.executed.fetch_add(1, Ordering::Relaxed);
                Acquire::Owner(OwnerToken {
                    cache: Arc::clone(&self.inner),
                    key: key.clone(),
                    flight,
                    published: false,
                })
            }
        }
    }

    /// Block until a flight finishes. Returns the published value, or
    /// `None` if the owner aborted (caller should re-`acquire`).
    pub fn wait(&self, flight: &Arc<Flight<V>>) -> Option<V> {
        let mut st = flight.state.lock().unwrap();
        loop {
            match &*st {
                FlightState::Finished(v) => return v.clone(),
                FlightState::Pending => st = flight.done.wait(st).unwrap(),
            }
        }
    }

    /// Fetch-or-compute with single-flight semantics: the convenience
    /// wrapper for one key (the service layer drives `acquire` directly
    /// when it wants to batch multiple cold cells into one fan-out).
    pub fn get_or_compute(&self, key: &Key, compute: impl FnOnce() -> V) -> V {
        loop {
            match self.acquire(key) {
                Acquire::Hit(v) => return v,
                Acquire::Owner(token) => {
                    let v = compute();
                    token.publish(v.clone());
                    return v;
                }
                Acquire::Waiter(flight) => {
                    if let Some(v) = self.wait(&flight) {
                        return v;
                    }
                    // Owner aborted; retry (this thread may become the
                    // new owner).
                }
            }
        }
    }

    /// Number of ready entries (for `/stats`).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when no entries are ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (whole shards at a time; entries are
    /// content-addressed so there is no partial-eviction policy to
    /// preserve, and clearing avoids any hash-order-dependent walk).
    pub fn clear(&self) {
        for s in &self.inner.shards {
            s.lock().unwrap().clear();
        }
    }
}

impl<V: Clone> Default for Cache<V> {
    fn default() -> Self {
        Cache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn hit_after_publish() {
        let cache: Cache<u32> = Cache::new();
        let key = Key::new("cell/a");
        match cache.acquire(&key) {
            Acquire::Owner(t) => t.publish(7),
            _ => panic!("first acquire must own"),
        }
        match cache.acquire(&key) {
            Acquire::Hit(v) => assert_eq!(v, 7),
            _ => panic!("second acquire must hit"),
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats.executed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn waiter_blocks_until_owner_publishes() {
        let cache: Arc<Cache<u32>> = Arc::new(Cache::new());
        let key = Key::new("cell/b");
        let token = match cache.acquire(&key) {
            Acquire::Owner(t) => t,
            _ => panic!("must own"),
        };
        let flight = match cache.acquire(&key) {
            Acquire::Waiter(f) => f,
            _ => panic!("second concurrent acquire must wait"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.wait(&flight))
        };
        token.publish(42);
        assert_eq!(waiter.join().unwrap(), Some(42));
        assert_eq!(cache.stats.coalesced.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn aborted_owner_wakes_waiters_and_clears_slot() {
        let cache: Cache<u32> = Cache::new();
        let key = Key::new("cell/c");
        let token = match cache.acquire(&key) {
            Acquire::Owner(t) => t,
            _ => panic!("must own"),
        };
        let flight = match cache.acquire(&key) {
            Acquire::Waiter(f) => f,
            _ => panic!("must wait"),
        };
        drop(token); // abort without publishing
        assert_eq!(cache.wait(&flight), None);
        // Slot is clear: the next acquire owns again.
        assert!(matches!(cache.acquire(&key), Acquire::Owner(_)));
    }

    #[test]
    fn get_or_compute_runs_once_across_threads() {
        let cache: Arc<Cache<u64>> = Arc::new(Cache::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                thread::spawn(move || {
                    cache.get_or_compute(&Key::new("cell/d"), || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        thread::yield_now();
                        99
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one execution");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let cache: Cache<u32> = Cache::new();
        let a = match cache.acquire(&Key::new("cell/x")) {
            Acquire::Owner(t) => t,
            _ => panic!(),
        };
        assert!(matches!(
            cache.acquire(&Key::new("cell/y")),
            Acquire::Owner(_)
        ));
        a.publish(1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
