//! The group table: dense ids, strided arenas, one index.
//!
//! §6.4 keeps a group table and, per supergroup, the list of its groups;
//! the cleaning phase and the window close walk that list. Here a group
//! *is* its position in the table — a dense `u32` id — so the list is a
//! `Vec<u32>` and walking it reads each group's key and aggregates as
//! two slices, with no hashing and no key clone:
//!
//! * keys live in one `Vec<Value>`, `key_len` values per id;
//! * aggregate states live in one `Vec<AggState>`, `agg_len` per id,
//!   cloned in place from the spec's fresh ones — or, under a state
//!   budget, in a [`PagedBackend`] addressed by the same ids;
//! * each id keeps the Fx hash of its key, so growing the index and
//!   unlinking an evicted group never touch a key;
//! * evicted ids go to a free list and are reused before the arenas
//!   grow, so the arena length is the window's peak of live groups;
//! * one open-addressing index of ids (linear probing, load ≤ ½) finds
//!   a group by key. It is indexed by the *high* bits of the hash — Fx
//!   ends in a multiply, which mixes upward and leaves the low bits a
//!   function of the low bits of the last word alone — and deletes by
//!   backward shift, not tombstones: lossy counting evicts half the
//!   table every bucket, and tombstones would turn every later probe
//!   into a scan of the dead.
//!
//! Nothing is freed at a window close: `GroupTable::clear` resets the
//! arenas and the index and keeps their capacity for the next window.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use rustc_hash::FxHasher;
use sso_types::Value;

use crate::agg::{AggSpec, AggState};

/// A store of aggregate states by group id that may page them to disk.
///
/// The group table keeps every key, the index and the member lists in
/// RAM. When live state would exceed a configured budget, `sso-store`
/// holds the aggregate states instead (fixed-size pages, clock eviction,
/// spill file) behind this trait. Access takes `&mut self` because it
/// may fault a page in — and evict another to stay under budget.
pub trait PagedBackend: Send {
    /// Store the aggregate states of a new group. `id` must not be
    /// present.
    fn insert(&mut self, id: u32, aggs: Vec<AggState>);
    /// Mutable access to a group's aggregate states, faulting its page
    /// in if spilled.
    fn aggs_mut(&mut self, id: u32) -> Option<&mut [AggState]>;
    /// Drop a group's aggregate states. The id may be inserted again
    /// afterwards, for another key.
    fn remove(&mut self, id: u32);
    /// Drop every entry and reset the spill file (window close).
    fn clear(&mut self);
    /// Size hint from the audit's certified ceiling.
    fn reserve(&mut self, additional: usize);
    /// Estimated bytes of RAM-resident state right now.
    fn resident_bytes(&self) -> u64;
    /// High-water mark of [`Self::resident_bytes`].
    fn peak_resident_bytes(&self) -> u64;
    /// Spilled pages faulted back in so far.
    fn page_faults(&self) -> u64;
    /// Pages currently in the spill file.
    fn spilled_pages(&self) -> u64;
}

/// Spill counters of a paged group table (see [`PagedBackend`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Estimated bytes of RAM-resident group state.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// Page faults served from the spill file.
    pub page_faults: u64,
    /// Pages currently spilled.
    pub spilled_pages: u64,
}

/// An index slot holding no id. Ids stay below it.
const EMPTY: u32 = u32::MAX;
/// Index slots of a new table (a power of two).
const INITIAL_INDEX: usize = 16;
/// Index slots per live group, at least: load ≤ ½.
const SLOTS_PER_GROUP: usize = 2;

fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Proof that [`GroupTable::upsert`] created a group, and whether the
/// arenas grew for it.
pub(crate) struct Created {
    grown: bool,
}

/// The group table of one operator (see the module doc).
pub(crate) struct GroupTable {
    key_len: usize,
    agg_len: usize,
    keys: Vec<Value>,
    /// Unused (empty) while `paged` holds the aggregate states.
    aggs: Vec<AggState>,
    hashes: Vec<u64>,
    free: Vec<u32>,
    index: Vec<u32>,
    /// `64 - log2(index.len())`: a hash's home slot is `hash >> shift`.
    shift: u32,
    live: usize,
    paged: Option<Box<dyn PagedBackend>>,
    /// What a new group's aggregate states are cloned from.
    fresh: Vec<AggState>,
}

impl GroupTable {
    /// A table of groups with `key_len` group-by values and the
    /// aggregates `specs`.
    pub(crate) fn new(key_len: usize, specs: &[AggSpec]) -> Self {
        GroupTable {
            key_len,
            agg_len: specs.len(),
            keys: Vec::new(),
            aggs: Vec::new(),
            hashes: Vec::new(),
            free: Vec::new(),
            index: vec![EMPTY; INITIAL_INDEX],
            shift: 64 - INITIAL_INDEX.trailing_zeros(),
            live: 0,
            paged: None,
            fresh: specs.iter().map(AggSpec::init).collect(),
        }
    }

    /// Keep aggregate states in `backend` from now on. The table must be
    /// empty.
    pub(crate) fn set_backend(&mut self, backend: Box<dyn PagedBackend>) {
        debug_assert_eq!(self.live, 0, "backend swap on a live group table");
        self.paged = Some(backend);
    }

    pub(crate) fn spill_stats(&self) -> Option<SpillStats> {
        self.paged.as_ref().map(|b| SpillStats {
            resident_bytes: b.resident_bytes(),
            peak_resident_bytes: b.peak_resident_bytes(),
            page_faults: b.page_faults(),
            spilled_pages: b.spilled_pages(),
        })
    }

    /// Live groups.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The most groups that were live at once since the last
    /// [`Self::clear`]: freed ids are reused before the arenas grow, so
    /// this is the arena length.
    pub(crate) fn peak(&self) -> usize {
        self.hashes.len()
    }

    /// Where the key of `id` lies in `keys`.
    fn key_range(&self, id: u32) -> Range<usize> {
        id as usize * self.key_len..(id as usize + 1) * self.key_len
    }

    /// Where the aggregate states of `id` lie in `aggs`.
    fn agg_range(&self, id: u32) -> Range<usize> {
        id as usize * self.agg_len..(id as usize + 1) * self.agg_len
    }

    /// Key and aggregate states of a live group.
    pub(crate) fn entry_mut(&mut self, id: u32) -> (&[Value], &mut [AggState]) {
        let (key_range, agg_range) = (self.key_range(id), self.agg_range(id));
        let aggs = match &mut self.paged {
            None => &mut self.aggs[agg_range],
            Some(b) => b.aggs_mut(id).expect("live group has paged aggregate states"),
        };
        (&self.keys[key_range], aggs)
    }

    /// Find or create the group of `key`: one hash and one probe for a
    /// live group, no allocation for a new one (its states are cloned
    /// in place from the fresh ones). Returns the group's id and,
    /// for a *new* group, what [`Self::retract`] needs to undo the
    /// creation — the caller lists the id under its supergroup, or
    /// retracts it if the group's first fold fails.
    pub(crate) fn upsert(&mut self, key: &[Value]) -> (u32, Option<Created>) {
        debug_assert_eq!(key.len(), self.key_len);
        let hash = hash_key(key);
        let mut pos = self.probe(hash, |id| {
            self.hashes[id as usize] == hash && self.keys[self.key_range(id)] == *key
        });
        let found = self.index[pos];
        if found != EMPTY {
            return (found, None);
        }
        if (self.live + 1) * SLOTS_PER_GROUP > self.index.len() {
            self.resize_index(self.index.len() * 2);
            pos = self.probe(hash, |_| false);
        }
        let grown = self.free.is_empty();
        let id = self.alloc(key, hash);
        self.index[pos] = id;
        self.live += 1;
        (id, Some(Created { grown }))
    }

    /// Undo the creation of group `id`: but for index room claimed, the
    /// table is as it was before the [`Self::upsert`] that made it.
    pub(crate) fn retract(&mut self, id: u32, created: Created) {
        self.remove(id);
        if created.grown {
            // The arenas' last slot was never a live group.
            self.free.pop();
            self.hashes.pop();
            self.keys.truncate(self.keys.len() - self.key_len);
            self.aggs.truncate(self.hashes.len() * self.agg_len);
        }
    }

    /// Remove a live group: unlink it from the index by its stored hash
    /// and its id (no key is compared), drop its key and states, and
    /// free the id for reuse.
    pub(crate) fn remove(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.probe(self.hashes[id as usize], |other| other == id);
        debug_assert_eq!(self.index[hole], id, "removed group is indexed");
        // Backward shift: pull every later entry of the probe chain that
        // may move (its home slot is not past the hole) into the hole.
        let mut next = (hole + 1) & mask;
        while self.index[next] != EMPTY {
            let home = (self.hashes[self.index[next] as usize] >> self.shift) as usize;
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = EMPTY;
        self.live -= 1;
        self.release(id);
    }

    /// Drop every group; arenas, free list and index keep their
    /// capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.aggs.clear();
        self.hashes.clear();
        self.free.clear();
        self.index.fill(EMPTY);
        self.live = 0;
        if let Some(b) = &mut self.paged {
            b.clear();
        }
    }

    /// Make room for `additional` more groups without growing the index
    /// or the arenas.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let groups = self.live + additional;
        let slots = (groups * SLOTS_PER_GROUP).next_power_of_two();
        if slots > self.index.len() {
            self.resize_index(slots);
        }
        let fresh = groups.saturating_sub(self.hashes.len());
        self.keys.reserve(fresh * self.key_len);
        self.hashes.reserve(fresh);
        match &mut self.paged {
            None => self.aggs.reserve(fresh * self.agg_len),
            Some(b) => b.reserve(additional),
        }
    }

    /// Walk the probe chain of `hash`: the slot of the first id `found`
    /// accepts, or the vacant slot that ends the chain.
    #[inline]
    fn probe(&self, hash: u64, found: impl Fn(u32) -> bool) -> usize {
        let mask = self.index.len() - 1;
        let mut pos = (hash >> self.shift) as usize;
        loop {
            let id = self.index[pos];
            if id == EMPTY || found(id) {
                return pos;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Rebuild the index with `slots` slots from the stored hashes.
    fn resize_index(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= self.live * SLOTS_PER_GROUP);
        let old = std::mem::replace(&mut self.index, vec![EMPTY; slots]);
        self.shift = 64 - slots.trailing_zeros();
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            let pos = self.probe(self.hashes[id as usize], |_| false);
            self.index[pos] = id;
        }
    }

    /// Take an id — a freed one first, else one more slot of the arenas
    /// — and write the group's key, hash and fresh aggregate states
    /// into it.
    fn alloc(&mut self, key: &[Value], hash: u64) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = u32::try_from(self.hashes.len()).ok().filter(|&id| id != EMPTY);
            self.keys.resize(self.keys.len() + self.key_len, Value::Null);
            self.hashes.push(0);
            if self.paged.is_none() {
                self.aggs.resize(self.aggs.len() + self.agg_len, AggState::Count(0));
            }
            id.expect("group ids fit u32")
        });
        let (key_range, agg_range) = (self.key_range(id), self.agg_range(id));
        self.keys[key_range].clone_from_slice(key);
        self.hashes[id as usize] = hash;
        // Cloned from memory, not built here: a state built on the stack
        // and then moved into its slot is read back before its stores
        // have retired.
        match &mut self.paged {
            None => self.aggs[agg_range].clone_from_slice(&self.fresh),
            Some(b) => b.insert(id, self.fresh.clone()),
        }
        id
    }

    /// Drop the key and states of `id` (a `Str` releases its `Arc` now,
    /// not when the slot is next written) and put the id on the free
    /// list.
    fn release(&mut self, id: u32) {
        let (key_range, agg_range) = (self.key_range(id), self.agg_range(id));
        self.keys[key_range].fill(Value::Null);
        match &mut self.paged {
            None => self.aggs[agg_range].fill(AggState::Count(0)),
            Some(b) => b.remove(id),
        }
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::error::OpError;
    use crate::expr::Expr;

    const KEY_LEN: usize = 2;

    fn specs() -> Vec<AggSpec> {
        vec![AggSpec::Count, AggSpec::Sum(Expr::Column(0)), AggSpec::First(Expr::Column(0))]
    }

    /// What the operator's fold does for [`specs`] on a tuple whose
    /// column 0 is `v`.
    fn fold(aggs: &mut [AggState], v: &Value) -> Result<(), OpError> {
        aggs[0].fold(None)?;
        aggs[1].fold(Some(v))?;
        aggs[2].fold(Some(v))
    }

    /// What the operator does with a tuple: find or create the group,
    /// fold, and retract a new group whose first fold fails. The id of a
    /// *new* group.
    fn upsert(
        t: &mut GroupTable,
        key: &[Value],
        fold: impl FnOnce(&mut [AggState]) -> Result<(), OpError>,
    ) -> Result<Option<u32>, OpError> {
        let (id, created) = t.upsert(key);
        match (fold(t.entry_mut(id).1), created) {
            (Ok(()), created) => Ok(created.map(|_| id)),
            (Err(e), created) => {
                if let Some(created) = created {
                    t.retract(id, created);
                }
                Err(e)
            }
        }
    }

    /// A [`PagedBackend`] that never pages: the table's paged branch
    /// must behave like its in-RAM one.
    #[derive(Default)]
    struct InRam(HashMap<u32, Vec<AggState>>);

    impl PagedBackend for InRam {
        fn insert(&mut self, id: u32, aggs: Vec<AggState>) {
            assert!(self.0.insert(id, aggs).is_none(), "id {id} inserted twice");
        }
        fn aggs_mut(&mut self, id: u32) -> Option<&mut [AggState]> {
            self.0.get_mut(&id).map(Vec::as_mut_slice)
        }
        fn remove(&mut self, id: u32) {
            assert!(self.0.remove(&id).is_some(), "id {id} removed twice");
        }
        fn clear(&mut self) {
            self.0.clear();
        }
        fn reserve(&mut self, additional: usize) {
            self.0.reserve(additional);
        }
        fn resident_bytes(&self) -> u64 {
            0
        }
        fn peak_resident_bytes(&self) -> u64 {
            0
        }
        fn page_faults(&self) -> u64 {
            0
        }
        fn spilled_pages(&self) -> u64 {
            0
        }
    }

    /// `n` keys `[lead, U64(_)]` whose hash starts with twelve bits equal
    /// to `top`: their home slot is the last one (`top` all ones) or the
    /// first (`top` zero) of every index of up to 4096 slots, so their
    /// probe chains collide, and those at the end wrap around.
    fn colliders(lead: Value, top: u64, n: usize) -> Vec<Vec<Value>> {
        (0u64..)
            .map(|x| vec![lead.clone(), Value::U64(x)])
            .filter(|key| hash_key(key) >> 52 == top)
            .take(n)
            .collect()
    }

    /// Keys the operations draw from: colliding chains at both ends of
    /// the index, all six kinds of value, and `U64(5)` ≡ `I64(5)`.
    fn pool() -> Vec<Vec<Value>> {
        let mut keys = colliders(Value::str("tail"), 0xfff, 24);
        keys.extend(colliders(Value::Null, 0, 8));
        keys.extend([
            vec![Value::U64(5), Value::U64(1)],
            vec![Value::I64(5), Value::U64(1)],
            vec![Value::I64(-5), Value::F64(0.5)],
            vec![Value::F64(f64::NAN), Value::Bool(true)],
            vec![Value::Bool(false), Value::str("")],
            vec![Value::str("a"), Value::str("b")],
            vec![Value::Null, Value::Null],
        ]);
        keys.extend((0..24).map(|x| vec![Value::U64(x * 7919), Value::I64(-(x as i64))]));
        keys
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Fold a tuple into the group of pool key `.0`.
        Upsert(usize, u64),
        /// The same, with a fold that fails.
        FailedUpsert(usize),
        /// Remove the group of pool key `.0`, if live.
        Remove(usize),
        Clear,
        Reserve(usize),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let n = pool().len();
        // Of sixteen: eight upserts, five removals, one of each other.
        let op = (0u8..16, 0..n, 0u64..100).prop_map(|(kind, k, v)| match kind {
            0..=7 => Op::Upsert(k, v),
            8..=12 => Op::Remove(k),
            13 => Op::FailedUpsert(k),
            14 => Op::Reserve(v as usize % 40),
            _ => Op::Clear,
        });
        proptest::collection::vec(op, 1..400)
    }

    /// The group of `key`, looked up the way `upsert` does.
    fn find(t: &GroupTable, key: &[Value]) -> Option<u32> {
        let pos = t.probe(hash_key(key), |id| t.keys[t.key_range(id)] == *key);
        Some(t.index[pos]).filter(|&id| id != EMPTY)
    }

    /// What the model knows of a live group: the key as first written,
    /// its aggregate states, its id.
    struct Group {
        written: Vec<Value>,
        aggs: Vec<AggState>,
        id: u32,
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn table_is_a_map_from_key_to_aggregates(ops in ops(), paged in any::<bool>()) {
            let (pool, specs) = (pool(), specs());
            let mut table = GroupTable::new(KEY_LEN, &specs);
            if paged {
                table.set_backend(Box::<InRam>::default());
            }
            let mut model: HashMap<Vec<Value>, Group> = HashMap::new();
            // Most groups live at once since the last clear, and the
            // index slots that (with the reservations) calls for.
            let (mut peak, mut slots) = (0, INITIAL_INDEX);
            for op in ops {
                match op {
                    Op::Upsert(k, v) => {
                        let v = Value::U64(v);
                        let new = upsert(&mut table, &pool[k], |aggs| fold(aggs, &v)).unwrap();
                        prop_assert_eq!(new.is_some(), !model.contains_key(&pool[k]));
                        let group = model.entry(pool[k].clone()).or_insert_with(|| Group {
                            written: pool[k].clone(),
                            aggs: specs.iter().map(AggSpec::init).collect(),
                            id: new.unwrap(),
                        });
                        fold(&mut group.aggs, &v).unwrap();
                        peak = peak.max(model.len());
                        slots = slots.max((model.len() * SLOTS_PER_GROUP).next_power_of_two());
                    }
                    Op::FailedUpsert(k) => {
                        let failed = upsert(&mut table, &pool[k], |_| {
                            Err(OpError::InvalidSpec("fold failed".into()))
                        });
                        prop_assert!(failed.is_err());
                        // A new group gets as far as claiming index room.
                        if !model.contains_key(&pool[k]) {
                            let room = (model.len() + 1) * SLOTS_PER_GROUP;
                            slots = slots.max(room.next_power_of_two());
                        }
                    }
                    Op::Remove(k) => {
                        if let Some(group) = model.remove(&pool[k]) {
                            table.remove(group.id);
                        }
                    }
                    Op::Clear => {
                        table.clear();
                        model.clear();
                        peak = 0;
                    }
                    Op::Reserve(n) => {
                        table.reserve(n);
                        let room = (model.len() + n) * SLOTS_PER_GROUP;
                        slots = slots.max(room.next_power_of_two());
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.index.len(), slots, "index grows at the load limit");
                prop_assert_eq!(table.index.iter().filter(|&&id| id != EMPTY).count(), model.len());
                // Freed ids are reused before the arenas grow.
                prop_assert_eq!(table.peak(), peak);
                prop_assert_eq!(table.keys.len(), peak * KEY_LEN);
                prop_assert_eq!(table.aggs.len(), if paged { 0 } else { peak * specs.len() });
                prop_assert_eq!(table.free.len(), peak - model.len());
                for (key, group) in &model {
                    prop_assert_eq!(find(&table, key), Some(group.id), "{:?}", key);
                    let (stored, aggs) = table.entry_mut(group.id);
                    // Rendered: `==` lets `I64(5)` pass for `U64(5)`.
                    prop_assert_eq!(format!("{stored:?}"), format!("{:?}", group.written));
                    prop_assert_eq!(&*aggs, group.aggs.as_slice());
                }
                for key in pool.iter().filter(|key| !model.contains_key(*key)) {
                    prop_assert_eq!(find(&table, key), None, "{:?}", key);
                }
            }
        }
    }

    #[test]
    fn a_chain_wraps_around_the_end_and_closes_up_on_removal() {
        let (keys, specs) = (colliders(Value::Null, 0xfff, 4), specs());
        let mut t = GroupTable::new(KEY_LEN, &specs);
        for key in &keys {
            t.upsert(key);
        }
        let last = t.index.len() - 1;
        let chain = |t: &GroupTable| [t.index[last], t.index[0], t.index[1], t.index[2]];
        assert_eq!(chain(&t), [0, 1, 2, 3]);
        // From the middle: the later two move up, across the wrap too.
        t.remove(1);
        assert_eq!(chain(&t), [0, 2, 3, EMPTY]);
        t.remove(0);
        assert_eq!(chain(&t), [2, 3, EMPTY, EMPTY]);
        assert_eq!((find(&t, &keys[2]), find(&t, &keys[3])), (Some(2), Some(3)));
        // An entry in its home slot stays there when the slot before it
        // empties: slot 0 is home to `head`, not to the end's overflow.
        t.remove(3);
        let head = &colliders(Value::Null, 0, 1)[0];
        assert_eq!(t.upsert(head).0, 3, "the id last freed");
        assert_eq!(chain(&t), [2, 3, EMPTY, EMPTY]);
        t.remove(2);
        assert_eq!(chain(&t), [EMPTY, 3, EMPTY, EMPTY]);
        assert_eq!(find(&t, head), Some(3));
    }

    #[test]
    fn evicting_releases_a_string() {
        let (name, first): (Arc<str>, Arc<str>) = (Arc::from("name"), Arc::from("first"));
        let key = [Value::Str(Arc::clone(&name)), Value::Null];
        let specs = specs();
        let mut t = GroupTable::new(KEY_LEN, &specs);
        let seen = Value::Str(Arc::clone(&first));
        let id = upsert(&mut t, &key, |aggs| fold(aggs, &seen)).unwrap().unwrap();
        drop(seen);
        // The key once; `sum` and `first` each hold the argument.
        assert_eq!((Arc::strong_count(&name), Arc::strong_count(&first)), (3, 3));
        t.remove(id);
        assert_eq!((Arc::strong_count(&name), Arc::strong_count(&first)), (2, 1));
        t.upsert(&key);
        t.clear();
        assert_eq!(Arc::strong_count(&name), 2, "held by `key` and `name` alone");
    }
}
