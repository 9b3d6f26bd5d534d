//! The spill-to-disk store of group aggregate states.
//!
//! Implements [`sso_core::PagedBackend`]: the operator's group table
//! keeps every key, its index and the member lists in RAM and addresses
//! a group by a dense id; under a state budget the groups' *aggregate
//! states* live here instead, in fixed-size pages (sealed at
//! [`PAGE_BYTES`] of modeled bytes). When resident state exceeds the
//! budget, clock (second-chance) eviction encodes a victim page and
//! appends it to the shard's spill file. Access to an id whose page is
//! spilled faults the page back in.
//!
//! Two pages are never evicted: the *open* page (still filling with new
//! groups) and the page just touched by the current operation. The
//! practical floor for a useful budget is therefore about two pages —
//! the static audit's W206 lint warns below that.
//!
//! Byte accounting uses the static audit's per-entry model — the table
//! is built with the query's `OperatorSpec::group_entry_bytes()` — so a
//! certified in-RAM ceiling from `sso audit` translates directly into a
//! page count here.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use rustc_hash::FxHashMap;
use sso_core::snapshot::{put_agg_states, take_agg_states, PAGE_BYTES};
use sso_core::{AggState, PagedBackend};
use sso_types::wire::{put_u32, Reader};

/// A page's entries: aggregate states by group id.
type Entries = FxHashMap<u32, Vec<AggState>>;

/// One page of group entries.
struct Page {
    /// Resident entries; `None` when the page lives in the spill file.
    entries: Option<Entries>,
    /// Modeled bytes of this page's entries.
    bytes: u64,
    /// Sealed pages accept no new entries and are eviction candidates.
    sealed: bool,
    /// Second-chance bit: set on touch, cleared by a passing clock hand.
    refbit: bool,
    /// Spill-file location of the last written copy, if any.
    disk: Option<(u64, u32)>,
    /// Has the resident copy diverged from the disk copy?
    dirty: bool,
}

impl Page {
    fn fresh() -> Self {
        Page {
            entries: Some(FxHashMap::default()),
            bytes: 0,
            sealed: false,
            refbit: true,
            disk: None,
            dirty: false,
        }
    }
}

/// The page of an id that holds no entry.
const VACANT: u32 = u32::MAX;

/// Group aggregate states bounded to `budget` modeled resident bytes,
/// spilling overflow pages to a file.
pub struct PagedGroupTable {
    file: File,
    budget: u64,
    /// Modeled resident bytes of one entry (key + aggregate states +
    /// hash slot): `OperatorSpec::group_entry_bytes()` of the query.
    entry_bytes: u64,
    /// Group id → its page, or [`VACANT`].
    slots: Vec<u32>,
    pages: Vec<Page>,
    open_page: u32,
    resident: u64,
    peak_resident: u64,
    faults: u64,
    file_len: u64,
    hand: usize,
}

impl PagedGroupTable {
    /// Create a paged table backed by `path` (truncated) with the given
    /// resident-byte budget, every entry modeled as `entry_bytes`.
    pub fn new(path: &Path, budget: u64, entry_bytes: u64) -> io::Result<Self> {
        let file =
            OpenOptions::new().create(true).read(true).write(true).truncate(true).open(path)?;
        Ok(PagedGroupTable {
            file,
            budget,
            entry_bytes,
            slots: Vec::new(),
            pages: vec![Page::fresh()],
            open_page: 0,
            resident: 0,
            peak_resident: 0,
            faults: 0,
            file_len: 0,
            hand: 0,
        })
    }

    /// Create the table on a shard's spill file inside a durable-run
    /// directory.
    pub fn for_shard(dir: &Path, shard: usize, budget: u64, entry_bytes: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Self::new(&crate::wal::spill_path(dir, shard), budget, entry_bytes)
    }

    /// The page of `id`, if it holds an entry.
    fn page_of(&self, id: u32) -> Option<usize> {
        self.slots.get(id as usize).filter(|&&page| page != VACANT).map(|&page| page as usize)
    }

    fn encode_page(entries: &Entries) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, entries.len() as u32);
        for (id, aggs) in entries {
            put_u32(&mut out, *id);
            put_agg_states(&mut out, aggs);
        }
        out
    }

    fn decode_page(bytes: &[u8]) -> io::Result<Entries> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let mut r = Reader::new(bytes);
        let n = r.take_u32().map_err(|e| bad(e.to_string()))? as usize;
        let mut entries = Entries::default();
        entries.reserve(n.min(PAGE_BYTES));
        for _ in 0..n {
            let id = r.take_u32().map_err(|e| bad(e.to_string()))?;
            let aggs = take_agg_states(&mut r).map_err(|e| bad(e.to_string()))?;
            entries.insert(id, aggs);
        }
        if !r.is_empty() {
            return Err(bad("trailing bytes in spill page".into()));
        }
        Ok(entries)
    }

    /// Write a page's entries to the spill file (append-only) and drop
    /// the resident copy.
    fn evict(&mut self, pid: usize) -> io::Result<()> {
        let page = &mut self.pages[pid];
        let entries = page.entries.take().expect("evicting a resident page");
        if page.dirty || page.disk.is_none() {
            let encoded = Self::encode_page(&entries);
            self.file.seek(SeekFrom::Start(self.file_len))?;
            self.file.write_all(&encoded)?;
            page.disk = Some((self.file_len, encoded.len() as u32));
            page.dirty = false;
            self.file_len += encoded.len() as u64;
        }
        self.resident -= page.bytes;
        Ok(())
    }

    /// Fault a spilled page back in.
    fn ensure_resident(&mut self, pid: usize) -> io::Result<()> {
        if self.pages[pid].entries.is_some() {
            return Ok(());
        }
        let (off, len) = self.pages[pid].disk.expect("spilled page has a disk copy");
        let mut buf = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut buf)?;
        let entries = Self::decode_page(&buf)?;
        let page = &mut self.pages[pid];
        page.entries = Some(entries);
        self.resident += page.bytes;
        self.faults += 1;
        Ok(())
    }

    /// Clock eviction until resident bytes fit the budget. `pinned`
    /// pages (the open page and the page the current operation
    /// touched) are skipped; if only pinned pages remain resident the
    /// table runs over budget rather than thrash.
    fn enforce_budget(&mut self, pinned: [u32; 2]) -> io::Result<()> {
        let mut sweeps = 0usize;
        while self.resident > self.budget && sweeps < 2 * self.pages.len() {
            let pid = self.hand % self.pages.len();
            self.hand = self.hand.wrapping_add(1);
            sweeps += 1;
            let evictable = self.pages[pid].sealed
                && self.pages[pid].entries.is_some()
                && !pinned.contains(&(pid as u32));
            if !evictable {
                continue;
            }
            if self.pages[pid].refbit {
                self.pages[pid].refbit = false;
                continue;
            }
            self.evict(pid)?;
        }
        self.peak_resident = self.peak_resident.max(self.resident);
        Ok(())
    }
}

impl PagedBackend for PagedGroupTable {
    fn insert(&mut self, id: u32, aggs: Vec<AggState>) {
        debug_assert!(self.page_of(id).is_none(), "group id {id} inserted twice");
        let pid = self.open_page as usize;
        let eb = self.entry_bytes;
        let page = &mut self.pages[pid];
        page.entries.as_mut().expect("open page is resident").insert(id, aggs);
        page.bytes += eb;
        page.refbit = true;
        page.dirty = true;
        self.resident += eb;
        if self.slots.len() <= id as usize {
            self.slots.resize(id as usize + 1, VACANT);
        }
        self.slots[id as usize] = self.open_page;
        if self.pages[pid].bytes >= PAGE_BYTES as u64 {
            self.pages[pid].sealed = true;
            self.pages.push(Page::fresh());
            self.open_page = (self.pages.len() - 1) as u32;
        }
        let pins = [self.open_page, pid as u32];
        // A full spill file is unrecoverable mid-stream anyway; treat
        // I/O failure as fatal here rather than silently running
        // unbounded.
        self.enforce_budget(pins).expect("spill write failed");
    }

    fn aggs_mut(&mut self, id: u32) -> Option<&mut [AggState]> {
        let pid = self.page_of(id)?;
        self.ensure_resident(pid).expect("spill read failed");
        self.pages[pid].refbit = true;
        self.pages[pid].dirty = true;
        self.enforce_budget([self.open_page, pid as u32]).expect("spill write failed");
        let entries = self.pages[pid].entries.as_mut().expect("page faulted in");
        entries.get_mut(&id).map(Vec::as_mut_slice)
    }

    fn remove(&mut self, id: u32) {
        let Some(pid) = self.page_of(id) else { return };
        let eb = self.entry_bytes;
        self.ensure_resident(pid).expect("spill read failed");
        self.slots[id as usize] = VACANT;
        let page = &mut self.pages[pid];
        page.entries.as_mut().expect("page faulted in").remove(&id);
        page.bytes -= eb;
        page.dirty = true;
        self.resident -= eb;
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.pages = vec![Page::fresh()];
        self.open_page = 0;
        self.resident = 0;
        self.hand = 0;
        self.file_len = 0;
        let _ = self.file.set_len(0);
    }

    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    fn resident_bytes(&self) -> u64 {
        self.resident
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident
    }

    fn page_faults(&self) -> u64 {
        self.faults
    }

    fn spilled_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.entries.is_none()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use sso_types::Value;

    use super::*;

    /// `group_entry_bytes()` of a query with a two-column key and two
    /// aggregates.
    const ENTRY_BYTES: u64 = 208;

    fn aggs(i: u32) -> Vec<AggState> {
        vec![AggState::Count(i as u64), AggState::Sum(Value::U64(i as u64 * 3))]
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sso-pager-{tag}-{}.spill", std::process::id()))
    }

    #[test]
    fn acts_like_a_map_within_budget() {
        let p = tmp("map");
        let mut t = PagedGroupTable::new(&p, u64::MAX, ENTRY_BYTES).unwrap();
        for i in 0..100 {
            assert!(t.aggs_mut(i).is_none());
            t.insert(i, aggs(i));
            assert!(t.aggs_mut(i).is_some());
        }
        assert_eq!(t.resident_bytes(), 100 * ENTRY_BYTES);
        assert_eq!(t.aggs_mut(7).unwrap()[0], AggState::Count(7));
        t.remove(7);
        assert!(t.aggs_mut(7).is_none());
        t.remove(7);
        assert_eq!(t.resident_bytes(), 99 * ENTRY_BYTES);
        assert_eq!(t.page_faults(), 0, "nothing spilled under an infinite budget");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn spills_under_budget_and_faults_back() {
        let p = tmp("spill");
        // Each entry models ~240 bytes; 2000 entries ≈ 7 pages. Budget
        // of 3 pages forces spilling.
        let budget = (3 * PAGE_BYTES) as u64;
        let mut t = PagedGroupTable::new(&p, budget, ENTRY_BYTES).unwrap();
        let n = 2000;
        for i in 0..n {
            t.insert(i, aggs(i));
        }
        assert!(t.spilled_pages() > 0, "budget forced spilling");
        assert!(t.resident_bytes() <= budget, "resident {} > budget {budget}", t.resident_bytes());
        assert!(t.peak_resident_bytes() <= budget);
        // Every entry is still retrievable, exactly.
        for i in 0..n {
            let a = t.aggs_mut(i).unwrap_or_else(|| panic!("entry {i} lost"));
            assert_eq!(a[0], AggState::Count(i as u64));
            assert_eq!(a[1], AggState::Sum(Value::U64(i as u64 * 3)));
        }
        assert!(t.page_faults() > 0);
        assert!(t.resident_bytes() <= budget);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn mutations_survive_eviction() {
        let p = tmp("mut");
        let budget = (2 * PAGE_BYTES) as u64;
        let mut t = PagedGroupTable::new(&p, budget, ENTRY_BYTES).unwrap();
        for i in 0..1500 {
            t.insert(i, aggs(i));
        }
        // Mutate an early (likely spilled) entry, then force more
        // eviction traffic, then verify the mutation persisted.
        t.aggs_mut(3).unwrap()[0] = AggState::Count(999_999);
        for i in 1500..3000 {
            t.insert(i, aggs(i));
        }
        assert_eq!(t.aggs_mut(3).unwrap()[0], AggState::Count(999_999));
        let _ = std::fs::remove_file(&p);
    }

    /// The group table reuses a freed id for another key. The id's new
    /// entry lands in the open page, and the old page — spilled with the
    /// old entry in it — never brings that entry back.
    #[test]
    fn a_reused_id_does_not_resurrect_its_old_entry() {
        let p = tmp("reuse");
        let budget = (2 * PAGE_BYTES) as u64;
        let mut t = PagedGroupTable::new(&p, budget, ENTRY_BYTES).unwrap();
        for i in 0..1500 {
            t.insert(i, aggs(i));
        }
        let first_page_len = t.pages[0].disk.expect("page 0 was spilled with id 3 in it").1;
        assert!(t.pages[0].entries.is_none());
        // Removal faults page 0 in; the rewrite is smaller by one entry.
        t.remove(3);
        t.insert(3, vec![AggState::Count(0), AggState::Sum(Value::Null)]);
        assert_eq!(t.slots[3], t.open_page, "a new entry goes to the open page");
        // An eviction / fault cycle over every page, the old one included.
        for i in 1500..3000 {
            t.insert(i, aggs(i));
        }
        for i in 0..3000 {
            let expect = if i == 3 { AggState::Count(0) } else { AggState::Count(i as u64) };
            assert_eq!(t.aggs_mut(i).unwrap()[0], expect, "id {i}");
        }
        assert!(t.pages[0].disk.unwrap().1 < first_page_len, "page 0 was rewritten without id 3");
        t.aggs_mut(0).unwrap();
        let old_page = t.pages[0].entries.as_ref().expect("id 0 just faulted page 0 in");
        assert!(!old_page.contains_key(&3));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn clear_resets_table_and_spill_file() {
        let p = tmp("clear");
        let budget = (2 * PAGE_BYTES) as u64;
        let mut t = PagedGroupTable::new(&p, budget, ENTRY_BYTES).unwrap();
        for i in 0..1500 {
            t.insert(i, aggs(i));
        }
        t.clear();
        assert_eq!(t.resident_bytes(), 0);
        assert_eq!(t.spilled_pages(), 0);
        assert!(t.aggs_mut(3).is_none());
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 0, "spill file truncated");
        // Reusable after clear.
        t.insert(1, aggs(1));
        assert_eq!(t.aggs_mut(1).unwrap()[0], AggState::Count(1));
        let _ = std::fs::remove_file(&p);
    }
}
