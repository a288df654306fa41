//! The key lifecycle: what the session holds for each (query, tables) key,
//! and every decision about it, as transitions over the one map: a sight,
//! a settle, and the release of a claim that never settles.
//!
//! ```text
//!             first sight: run whole,          second sight: claim
//!             then hold it (settle)            the key's route (sight)
//!   absent ─────────────────────────▶ whole ─────────────────────▶ routing
//!    ▲                                  ▲                          │ │ the claimer routes its
//!    │                                  └─ the claimer unwound or ─┘ │ rows over the cores,
//!    │                                     failed first (release)    ▼ then holds the layout
//!    └───────── evicted, oldest first, from any stage ───────── routed ◀─┐  while its claim
//!                                                                  └─────┘  stands; warm
//!                                                                           sights run it
//!   a pinned shard count: a layout of its own, routed per request, never held
//! ```
//!
//! [`Caches::sight`] is one critical section: it reads what is held for the
//! key, claims a whole key's route and names its layout ([`units`]: the one
//! shard-count rule), and says what the request does ([`Sight`]); a pin
//! reads nothing. [`Caches::settle`] is the other: it holds what the sight
//! earned. A claimer that leaves before it settles — a panic unwinding its
//! thread, or an error — gives a standing claim back through
//! [`Caches::release`], which the session's claim guard calls on drop.
//! None of them takes a lock, reads a clock, opens a span or does I/O;
//! the session calls each under its one mutex and performs the sight
//! between them, with no lock held: route, run. The module's checker
//! explores every interleaving of racing requests over these very
//! functions.

use crate::request::QueryRequest;
use cheetah_db::{units, DbQuery, Table};
use cheetah_runtime::ExecPlan;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Admit one more request past `in_flight` executing, if under `bound`:
/// the count after it.
pub(crate) fn admit(in_flight: usize, bound: usize) -> Option<usize> {
    (in_flight < bound).then_some(in_flight + 1)
}

/// What a request is, to the session: the query and the tables it reads,
/// compared by address. Addresses stand in for content identity — tables
/// are immutable, so a rebuilt table is a new allocation — and the key
/// holds the tables, so no other table can take their address while it is
/// held.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    query: Arc<DbQuery>,
    left: Arc<Table>,
    right: Option<Arc<Table>>,
}

impl Key {
    pub(crate) fn of(req: &QueryRequest) -> Self {
        Key { query: Arc::clone(&req.query), left: Arc::clone(&req.left), right: req.right.clone() }
    }

    fn addresses(&self) -> (*const Table, Option<*const Table>) {
        (Arc::as_ptr(&self.left), self.right.as_ref().map(Arc::as_ptr))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query && self.addresses() == other.addresses()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.query.hash(state);
        self.addresses().hash(state);
    }
}

/// Everything the session holds for one key. A key that keeps coming
/// back moves absent → whole → routed:
///
/// * **whole** — first sight ran the tables themselves on one shard (no
///   copy); `plan` is that one-shard layout, and the entry records only
///   that the key was seen;
/// * **routed** — second sight invested: `plan` is the key's rows laid out
///   over the cores ([`units`]) — above one unit, fresh per-shard copies
///   of the columns the query reads, hash-routed as a pin of that count
///   is; at one, the caller's tables. Every further request runs it, on
///   whichever arm it asks for.
pub(crate) struct Entry {
    pub(crate) plan: Arc<ExecPlan>,
    pub(crate) stage: Stage,
}

/// Where a held key stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Seen once: sights run `plan`, the tables whole.
    Whole,
    /// Whole, and one second sight has claimed the key's route: racing
    /// sights run it whole meanwhile, so nothing is routed twice.
    Routing,
    /// Routed: sights run `plan`, the key's routed layout.
    Routed,
}

/// What a sight found for its request, and so what the request does.
pub(crate) enum Sight {
    /// Nothing held: run the tables whole on one shard, then hold them
    /// ([`Caches::settle`] with no claim).
    First,
    /// A pinned shard count: route a layout of the request's own over this
    /// many shards and run it. Nothing is read or held.
    Pinned(usize),
    /// The whole key claimed: route its rows over `shards`, hold the
    /// routed layout ([`Caches::settle`] with `claim`), then run it.
    Routing { claim: Arc<ExecPlan>, shards: usize },
    /// The whole key claimed by another: run it whole.
    Racing(Arc<ExecPlan>),
    /// Routed: run the held layout.
    Warm(Arc<ExecPlan>),
}

impl Sight {
    /// The `plan` span's `cache` attribute.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Sight::First => "first-sight",
            Sight::Pinned(_) => "pinned",
            Sight::Routing { .. } => "miss",
            Sight::Racing(_) => "whole",
            Sight::Warm(_) => "hit",
        }
    }

    /// Whether the request runs a layout the session already held for its
    /// key.
    pub(crate) fn plan_cached(&self) -> bool {
        matches!(self, Sight::Warm(_))
    }
}

/// The session's one map. Every entry pins its key's tables, and a routed
/// one a copy of the columns its query reads, so it is bounded
/// (`SessionConfig::plan_cache_capacity`): `order` is the keys of `map`
/// in insertion order and the oldest goes first, which costs the warm path
/// no bookkeeping.
#[derive(Default)]
pub(crate) struct Caches {
    pub(crate) map: HashMap<Key, Entry>,
    pub(crate) order: VecDeque<Key>,
}

impl Caches {
    /// What the session holds for `key` and what the request does: route
    /// the `pin`ned count if any, without reading the map; else run what is
    /// held, or the tables whole. A whole key found is claimed
    /// ([`Stage::Routing`]): this sight routes it, into [`units`] of its
    /// rows over `workers`.
    pub(crate) fn sight(&mut self, key: &Key, pin: Option<usize>, workers: usize) -> Sight {
        if let Some(shards) = pin {
            return Sight::Pinned(shards);
        }
        let Some(e) = self.map.get_mut(key) else { return Sight::First };
        let plan = Arc::clone(&e.plan);
        match e.stage {
            Stage::Routed => Sight::Warm(plan),
            Stage::Routing => Sight::Racing(plan),
            Stage::Whole => {
                e.stage = Stage::Routing;
                let shards = units(&key.query, &key.left, key.right.as_deref(), workers);
                Sight::Routing { claim: plan, shards }
            }
        }
    }

    /// Hold what a sight earned, `plan`, and at most `capacity` entries. A
    /// first sight (`claim` none) holds its whole layout if the key is
    /// still absent. A routing sight holds its routed layout only while its
    /// claim stands — the entry is still the whole one it claimed, routing
    /// — and keeps its place in the eviction order. A stale claim (the key
    /// evicted since, and perhaps seen and claimed afresh) holds nothing:
    /// the request answers on its own layout.
    pub(crate) fn settle(
        &mut self,
        key: &Key,
        claim: Option<&Arc<ExecPlan>>,
        plan: &Arc<ExecPlan>,
        capacity: usize,
    ) {
        let entry = |stage| Entry { plan: Arc::clone(plan), stage };
        match claim {
            Some(claim) => {
                if let Some(e) = self.standing(key, claim) {
                    *e = entry(Stage::Routed);
                }
            }
            None if !self.map.contains_key(key) => {
                self.map.insert(key.clone(), entry(Stage::Whole));
                self.order.push_back(key.clone());
                if self.order.len() > capacity.max(1) {
                    let oldest = self.order.pop_front().expect("just pushed");
                    self.map.remove(&oldest);
                }
            }
            None => {}
        }
    }

    /// Release a routing sight's `claim` that will never settle: its
    /// request unwound, or failed, before it held a routed layout. A claim
    /// still standing returns its entry to [`Stage::Whole`], where the next
    /// sight claims it afresh; a stale one releases nothing.
    pub(crate) fn release(&mut self, key: &Key, claim: &Arc<ExecPlan>) {
        if let Some(e) = self.standing(key, claim) {
            e.stage = Stage::Whole;
        }
    }

    /// `key`'s entry while `claim` stands on it: still routing, under the
    /// very whole layout the claim took.
    fn standing(&mut self, key: &Key, claim: &Arc<ExecPlan>) -> Option<&mut Entry> {
        let e = self.map.get_mut(key)?;
        (e.stage == Stage::Routing && Arc::ptr_eq(&e.plan, claim)).then_some(e)
    }
}

#[cfg(test)]
mod tests {
    //! The lifecycle checker: every interleaving of racing requests over
    //! [`admit`], [`Caches::sight`] and [`Caches::settle`] — the session's
    //! own code, not a model of it — in the dslab-mp style of
    //! `cheetah_net::checker`. A request is its critical sections: admit
    //! (once more after a refusal, where the world retries), sight, settle
    //! (when its sight earned something to hold; [`Caches::release`]
    //! instead, where the world has it unwind) and complete. The gaps
    //! between them — route, run — are where other requests interleave.
    //! Distinct states are visited once, so the search is exhaustive over
    //! states rather than over schedules.

    use super::*;
    use cheetah_db::{Cluster, DataType, TableBuilder, Value};
    use std::collections::HashSet;

    /// The configuration of record: 2 keys × 3 racing sights, cache
    /// capacity 1, in-flight bound 2.
    const SIGHTS: [usize; 2] = [3, 3];
    const CAPACITY: usize = 1;
    const BOUND: usize = 2;
    /// The pool width each sight lays a returning key out over.
    const WORKERS: usize = 2;
    /// Safety valve: a search past this many states is cut, and says so.
    const MAX_STATES: usize = 200_000;

    /// Which step a request takes next.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Phase {
        /// Before the admission gate; `retry`: refused, it arrives once
        /// more.
        Arriving { retry: bool },
        /// Admitted: its sight is next.
        Admitted,
        /// Told to hold what it lays out — whole, or routed under the
        /// claim (an index into [`World::plans`]): it runs or routes,
        /// then settles.
        Holding { claim: Option<usize> },
        /// Nothing (more) to hold: it runs or responds, then completes.
        Finishing,
        /// Completed, or refused at admission.
        Done { admitted: bool },
    }

    /// What never changes while the checker explores: the keys (each
    /// holding its table), the layouts each request lays out when its turn
    /// comes — its own allocations, as a request's are — and the pins and
    /// retries it sends.
    struct World {
        keys: Vec<Key>,
        /// The key of each request.
        requests: Vec<usize>,
        /// Each request's whole layout, then each request's routed one.
        plans: Vec<Arc<ExecPlan>>,
        /// The shard count each request pins, if any: its layout is its
        /// own, so no state names it.
        pins: Vec<Option<usize>>,
        /// Whether a request refused at admission retries, once.
        retry: bool,
        /// The request, if any, that unwinds where it would settle: its
        /// claim guard releases a routing claim, and a first sight holds
        /// nothing. It still completes, as its in-flight slot's drop does.
        unwinds: Option<usize>,
        capacity: usize,
        bound: usize,
    }

    impl World {
        /// `sights[k]` requests of key `k`, each key one query over its own
        /// table, each request's routed layout the one its sight names;
        /// none pinned, none retrying.
        fn new(sights: &[usize], capacity: usize, bound: usize) -> Self {
            let cluster = Cluster::default();
            let q = DbQuery::Distinct { col: 0 };
            let tables: Vec<_> = (0..sights.len())
                .map(|k| {
                    let mut b = TableBuilder::new("t", vec![("k".into(), DataType::Int)], 64);
                    (0..64).for_each(|i| b.push_row([Value::Int(i * (k as i64 + 1) % 7)]));
                    Arc::new(b.build())
                })
                .collect();
            let keys = tables.iter().map(|t| Key::of(&QueryRequest::new(q.clone(), t.clone())));
            let requests: Vec<usize> =
                sights.iter().enumerate().flat_map(|(k, &n)| vec![k; n]).collect();
            let lay = |t: &Arc<Table>, shards| {
                Arc::new(ExecPlan::new(&cluster, &q, t, None, shards).expect("lays out"))
            };
            let whole = requests.iter().map(|&k| lay(&tables[k], 1));
            let routed =
                requests.iter().map(|&k| lay(&tables[k], units(&q, &tables[k], None, WORKERS)));
            let plans = whole.collect::<Vec<_>>().into_iter().chain(routed).collect();
            let pins = vec![None; requests.len()];
            let keys = keys.collect();
            World { keys, requests, plans, pins, retry: false, unwinds: None, capacity, bound }
        }

        /// The index of request `r`'s routed layout in [`World::plans`]
        /// (its whole one is `r`).
        fn routed(&self, r: usize) -> usize {
            self.requests.len() + r
        }

        /// The index of a plan this world laid out.
        fn id(&self, plan: &Arc<ExecPlan>) -> usize {
            self.plans.iter().position(|p| Arc::ptr_eq(p, plan)).expect("a request's own plan")
        }
    }

    /// One point of the exploration: the session's map and in-flight count,
    /// where each request stands, and per key the claims made and routed
    /// layouts held since it last entered the map (its residency).
    struct State {
        caches: Caches,
        in_flight: usize,
        phases: Vec<Phase>,
        claims: Vec<u8>,
        holds: Vec<u8>,
    }

    impl State {
        fn new(w: &World) -> Self {
            State {
                caches: Caches::default(),
                in_flight: 0,
                phases: vec![Phase::Arriving { retry: w.retry }; w.requests.len()],
                claims: vec![0; w.keys.len()],
                holds: vec![0; w.keys.len()],
            }
        }

        fn fork(&self) -> Self {
            let map = self
                .caches
                .map
                .iter()
                .map(|(k, e)| (k.clone(), Entry { plan: Arc::clone(&e.plan), stage: e.stage }));
            State {
                caches: Caches { map: map.collect(), order: self.caches.order.clone() },
                in_flight: self.in_flight,
                phases: self.phases.clone(),
                claims: self.claims.clone(),
                holds: self.holds.clone(),
            }
        }

        /// The held entry of key `k`: its plan's index and its stage.
        fn entry(&self, w: &World, k: usize) -> Option<(usize, Stage)> {
            self.caches.map.get(&w.keys[k]).map(|e| (w.id(&e.plan), e.stage))
        }

        /// The map in eviction order: each key held, its plan's index and
        /// its stage (an entry out of the order is left out; [`check`]
        /// refuses that state).
        ///
        /// [`check`]: State::check
        fn held(&self, w: &World) -> Vec<[u8; 3]> {
            let k = |key: &Key| w.keys.iter().position(|k| k == key).expect("a world key");
            let held = self.caches.order.iter().map(k);
            held.filter_map(|k| self.entry(w, k).map(|(p, s)| [k as u8, p as u8, s as u8]))
                .collect()
        }

        /// Request `r`'s next critical section, run on the session's code,
        /// and the invariants over the step it made.
        fn step(&self, w: &World, r: usize) -> std::result::Result<State, String> {
            let mut next = self.fork();
            let k = w.requests[r];
            next.phases[r] = match self.phases[r] {
                Phase::Arriving { retry } => match admit(self.in_flight, w.bound) {
                    Some(n) => {
                        next.in_flight = n;
                        Phase::Admitted
                    }
                    None if retry => Phase::Arriving { retry: false },
                    None => Phase::Done { admitted: false },
                },
                Phase::Admitted => match next.caches.sight(&w.keys[k], w.pins[r], WORKERS) {
                    Sight::Pinned(n) if w.pins[r] == Some(n) => Phase::Finishing,
                    Sight::Pinned(_) => return Err(format!("request {r} pinned another count")),
                    _ if w.pins[r].is_some() => return Err(format!("pinned request {r} read")),
                    Sight::Warm(_) | Sight::Racing(_) => Phase::Finishing,
                    Sight::First => Phase::Holding { claim: None },
                    Sight::Routing { claim, .. } => {
                        next.claims[k] += 1;
                        Phase::Holding { claim: Some(w.id(&claim)) }
                    }
                },
                Phase::Holding { claim } => {
                    let own = &w.plans[if claim.is_some() { w.routed(r) } else { r }];
                    let claim = claim.map(|c| &w.plans[c]);
                    match claim {
                        Some(claim) if w.unwinds == Some(r) => {
                            next.caches.release(&w.keys[k], claim);
                        }
                        _ if w.unwinds == Some(r) => {}
                        _ => next.caches.settle(&w.keys[k], claim, own, w.capacity),
                    }
                    Phase::Finishing
                }
                Phase::Finishing => {
                    next.in_flight -= 1;
                    Phase::Done { admitted: true }
                }
                Phase::Done { .. } => unreachable!("a done request takes no step"),
            };
            if w.pins[r].is_some() && next.held(w) != self.held(w) {
                return Err(format!("pinned request {r} moved the map"));
            }
            next.check(self, w)?;
            Ok(next)
        }

        /// The invariants over one step, from `before` to `self`.
        fn check(&mut self, before: &State, w: &World) -> std::result::Result<(), String> {
            let rank = |s: Stage| s as u8;
            for k in 0..w.keys.len() {
                match (before.entry(w, k), self.entry(w, k)) {
                    (None, Some((_, stage))) if stage != Stage::Whole => {
                        return Err(format!("key {k} entered the map {stage:?}, not whole"));
                    }
                    (Some(_), None) | (None, Some(_)) => (self.claims[k], self.holds[k]) = (0, 0),
                    (Some((p0, s0)), Some((p1, s1))) => {
                        let routed = s0 == Stage::Routing && s1 == Stage::Routed;
                        // A claim goes back only by its own release: the
                        // unwinding claimer, its claim still standing.
                        let standing = Phase::Holding { claim: Some(p0) };
                        let released = s0 == Stage::Routing && s1 == Stage::Whole && p1 == p0;
                        let unwound = w.unwinds.is_some_and(|u| {
                            before.phases[u] == standing && self.phases[u] == Phase::Finishing
                        });
                        if released && unwound {
                            // The released claim is no claim of this
                            // residency: the next sight may claim afresh.
                            self.claims[k] -= 1;
                        } else if rank(s1) < rank(s0) || (p1 != p0 && !routed) {
                            return Err(format!("key {k} moved {s0:?} → {s1:?} while held"));
                        }
                        // A routed layout is held only under the claim it
                        // was routed for, the claim still standing.
                        let claimer = p1.checked_sub(w.requests.len());
                        if routed && claimer.map(|r| before.phases[r]) != Some(standing) {
                            return Err(format!("key {k} held a layout of another claim"));
                        }
                        self.holds[k] += u8::from(s1 == Stage::Routed && s0 != Stage::Routed);
                    }
                    (None, None) => {}
                }
                if self.claims[k] > 1 || self.holds[k] > 1 {
                    return Err(format!("key {k} claimed or held twice in one residency"));
                }
            }
            if self.in_flight > w.bound {
                return Err(format!("{} in flight past the bound", self.in_flight));
            }
            let (map, order) = (&self.caches.map, &self.caches.order);
            // As many keys in each, every key of the map in the order: the
            // same keys, none twice.
            let same = order.len() == map.len() && map.keys().all(|k| order.contains(k));
            if !same || order.len() > w.capacity {
                return Err(format!("{} keys in order, {} in the map", order.len(), map.len()));
            }
            Ok(())
        }

        /// The invariants once every request is done: no entry is left
        /// routing, and every admitted request completed exactly once — the
        /// in-flight count each admission raised is back at 0 (a second
        /// completion would have taken it below).
        fn check_end(&self) -> std::result::Result<(), String> {
            if let Some(e) = self.caches.map.values().find(|e| e.stage == Stage::Routing) {
                return Err(format!("an entry of {} shards left routing", e.plan.shards()));
            }
            if self.in_flight != 0 {
                return Err(format!("{} in flight once every request is done", self.in_flight));
            }
            Ok(())
        }

        /// What identifies this state: everything but the plans'
        /// addresses, which are named by their index instead.
        fn fingerprint(&self, w: &World) -> Vec<u8> {
            let mut out = vec![self.in_flight as u8];
            for phase in &self.phases {
                out.extend(match *phase {
                    Phase::Arriving { retry } => [0, u8::from(retry)],
                    Phase::Admitted => [1, 0],
                    Phase::Holding { claim } => [2, claim.map_or(u8::MAX, |c| c as u8)],
                    Phase::Finishing => [3, 0],
                    Phase::Done { admitted } => [4, u8::from(admitted)],
                });
            }
            out.extend(self.held(w).concat());
            out.extend(self.claims.iter().chain(&self.holds));
            out
        }
    }

    /// What an exploration covered.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Explored {
        /// Distinct states visited.
        states: usize,
        /// Distinct states in which every request is done.
        ends: usize,
        /// Whether [`MAX_STATES`] cut the search short.
        truncated: bool,
    }

    /// Every state reachable from `state`, depth first; the first broken
    /// invariant, with the schedule (request indices) that broke it.
    fn explore(
        w: &World,
        state: &State,
        seen: &mut HashSet<Vec<u8>>,
        found: &mut Explored,
        schedule: &mut Vec<usize>,
    ) -> std::result::Result<(), String> {
        if seen.len() >= MAX_STATES {
            found.truncated = true;
            return Ok(());
        }
        if !seen.insert(state.fingerprint(w)) {
            return Ok(());
        }
        found.states += 1;
        let live: Vec<usize> = (0..w.requests.len())
            .filter(|&r| !matches!(state.phases[r], Phase::Done { .. }))
            .collect();
        if live.is_empty() {
            found.ends += 1;
            return state.check_end().map_err(|e| format!("{e}; schedule {schedule:?}"));
        }
        for r in live {
            schedule.push(r);
            let next = state.step(w, r).map_err(|e| format!("{e}; schedule {schedule:?}"))?;
            explore(w, &next, seen, found, schedule)?;
            schedule.pop();
        }
        Ok(())
    }

    /// Run one schedule of request steps, checking every step, to its end.
    fn replay(w: &World, schedule: &[usize]) -> std::result::Result<State, String> {
        let mut state = State::new(w);
        for (i, &r) in schedule.iter().enumerate() {
            state = state.step(w, r).map_err(|e| format!("{e}; step {i} of {schedule:?}"))?;
        }
        Ok(state)
    }

    #[test]
    fn lifecycle_checker_exhausts_racing_sights_over_two_keys() {
        // Each configuration at in-flight bound 2, with the distinct states
        // and end states it visits: the one of record; one key seen four
        // times, so that a residency evicted under its claimer is seen and
        // claimed afresh; and a cache that holds both keys at once. A state
        // names each layout by its index, never by how it was laid out, so
        // these counts are those of the sessions that fitted a plan at the
        // second sight or borrowed a held key's: the layout a routing sight
        // lays out was never part of a state.
        for (sights, capacity, states, ends) in
            [(SIGHTS, CAPACITY, 56_773, 324), ([4, 2], 1, 56_073, 314), (SIGHTS, 2, 77_869, 678)]
        {
            let found = exhaust(&World::new(&sights, capacity, BOUND));
            let want = Explored { states, ends, truncated: false };
            assert_eq!(found, want, "{sights:?} @ {capacity}");
        }
    }

    /// The configuration of record, where a refused request retries once
    /// and key 0's second request pins a shard count: whatever is held for
    /// its key, the pinned request's steps leave the map and its order as
    /// they were ([`State::step`]), and every other request's lifecycle
    /// holds as without it.
    #[test]
    fn lifecycle_checker_retries_a_refusal_and_keeps_a_pin_out_of_the_map() {
        let mut w = World::new(&SIGHTS, CAPACITY, BOUND);
        (w.pins[1], w.retry) = (Some(3), true);
        assert_eq!(exhaust(&w), Explored { states: 110_716, ends: 253, truncated: false });
    }

    /// Key 0 seen four times and key 1 twice (so that a claim can go stale
    /// and the key be claimed afresh), where key 0's second request unwinds
    /// where it would settle: a claim of its that still stands is
    /// released, the key whole again for the next sight to claim; a stale
    /// one releases nothing, whoever claimed the key since; and a first
    /// sight it made holds nothing. No entry is left routing
    /// ([`State::check_end`]).
    #[test]
    fn lifecycle_checker_releases_the_claim_of_a_request_that_unwinds() {
        let mut w = World::new(&[4, 2], CAPACITY, BOUND);
        w.unwinds = Some(1);
        assert_eq!(exhaust(&w), Explored { states: 46_035, ends: 256, truncated: false });
    }

    /// Every state reachable from the start of `w`, each checked; what the
    /// search covered.
    fn exhaust(w: &World) -> Explored {
        let (mut seen, mut found) = (HashSet::new(), Explored::default());
        explore(w, &State::new(w), &mut seen, &mut found, &mut Vec::new()).unwrap();
        found
    }

    /// A claim that went stale holds nothing: the key it claimed was
    /// evicted while its claimer routed. Two schedules, each of which an
    /// unconditional hold of the routed layout breaks.
    #[test]
    fn a_stale_claim_holds_nothing() {
        // Key 0's requests are 0, 1 and 2; key 1's, 3 onwards. A request's
        // steps are admit, sight, settle (if it holds anything), complete.
        let w = World::new(&SIGHTS, CAPACITY, BOUND);
        // Request 1 claims key 0; a first sight of key 1 evicts key 0; then
        // request 1 finishes routing. Holding its layout would bring key 0
        // back routed, never whole, and evict key 1.
        let evicted = [0, 0, 0, 0, 1, 1, 3, 3, 3, 3, 1, 1];
        let end = replay(&w, &evicted).unwrap();
        assert_eq!((end.entry(&w, 0), end.entry(&w, 1)), (None, Some((3, Stage::Whole))));

        // As above, and then a first sight of key 0 holds it whole again
        // (evicting key 1) and request 3 claims that. Request 1's claim is
        // stale: holding its layout would route the one residency twice.
        let w = World::new(&[4, 1], CAPACITY, BOUND);
        let routed_again = [0, 0, 0, 0, 1, 1, 4, 4, 4, 4, 2, 2, 2, 2, 3, 3, 1, 3, 1, 3];
        let end = replay(&w, &routed_again).unwrap();
        assert_eq!(end.entry(&w, 0), Some((w.routed(3), Stage::Routed)));
        assert_eq!((end.entry(&w, 1), end.in_flight), (None, 0));
    }
}
