//! The shard log: one append-only file per shard, `shard-K.wal`.
//!
//! The operator's recoverable state changes at exactly one point, the
//! window close, so the durable record of a window is final the moment
//! it is written. The log therefore *is* the shard's durable state:
//! every closed window appends one record, no record is ever rewritten,
//! and recovery is one scan.
//!
//! ## Frame format
//!
//! Every record travels in the tree's one frame
//! ([`sso_types::wire::put_frame`]):
//!
//! ```text
//! u64  checksum     FNV-1a over the payload
//! u32  length       payload bytes
//! [..] payload
//! ```
//!
//! A reader stops at the first frame whose checksum or length does not
//! hold — damage is data loss bounded to that record and the ones after
//! it, never a panic.
//!
//! ## Record payload (one per closed window)
//!
//! ```text
//! u64   seq         window ordinal (0-based) — the chain check
//! bytes output      encoded WindowOutput
//! bytes carry       operator export_carry bytes
//! bytes aux         operator export_aux bytes
//! ```
//!
//! Replay accepts a record only when its `seq` is the next ordinal, and
//! the state as of the last accepted record — its carry, its aux, its
//! window key as the watermark — is what a resumed run restarts from.
//!
//! ## Checkpoints
//!
//! A checkpoint is a durability point, not a file: it syncs the log, so
//! everything recorded so far survives power loss. Nothing else is
//! written, because a synced record is never rewritten.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use sso_core::snapshot::{put_window_output, take_window_output};
use sso_core::WindowOutput;
use sso_types::wire::{
    begin_bytes, begin_frame, end_bytes, end_frame, put_bytes, put_u64, take_frame, Reader,
    WireError,
};
use sso_types::Tuple;

/// When log appends reach the platter (matters for power loss, not for
/// process crashes — the OS keeps written pages either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: at most one window lost even to
    /// power failure, at streaming cost.
    Always,
    /// `fsync` every `n` records: bounded loss window, amortized cost.
    EveryN(u32),
    /// No `fsync` per record (checkpoints still sync): survives process
    /// crashes, not power loss. The default.
    Never,
}

impl FsyncPolicy {
    /// Parse `always`, `never`, or `every=N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match s.strip_prefix("every=").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!("bad fsync policy '{s}' (always | never | every=N)")),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Where and how a durable run persists its state.
///
/// `checkpoint_every` and `fsync` are two cadences of one mechanism, a
/// sync of the log; the log is synced whenever either is due.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the per-shard files and the run MANIFEST.
    pub dir: PathBuf,
    /// Windows between checkpoints; `0` = checkpoint only at end of
    /// stream.
    pub checkpoint_every: u64,
    /// Per-record fsync policy.
    pub fsync: FsyncPolicy,
}

impl StoreConfig {
    /// A config with the default cadence (checkpoint every 8 windows,
    /// no per-record fsync).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig { dir: dir.into(), checkpoint_every: 8, fsync: FsyncPolicy::Never }
    }
}

/// One closed window's durable payload.
#[derive(Debug)]
pub struct WindowRecord<'a> {
    /// The window's emitted output.
    pub output: &'a WindowOutput,
    /// Operator carry-over bytes (`SamplingOperator::export_carry`).
    pub carry: &'a [u8],
    /// Library-auxiliary bytes (`SamplingOperator::export_aux`).
    pub aux: &'a [u8],
}

/// A shard's recovered durable state.
#[derive(Debug, Default)]
pub struct RecoveredShard {
    /// Every durably recorded window output, in window order.
    pub outputs: Vec<WindowOutput>,
    /// Carry-over bytes as of the last recorded window.
    pub carry: Vec<u8>,
    /// Library-auxiliary bytes as of the last recorded window.
    pub aux: Vec<u8>,
    /// Window key of the last recorded window — the resume watermark.
    pub watermark: Option<Tuple>,
}

/// Per-shard durable writer: one log append per closed window, a sync
/// of the log at every durability point.
pub struct ShardStore {
    checkpoint_every: u64,
    fsync: FsyncPolicy,
    log: File,
    /// The record being encoded. Recycled, so recording a window no
    /// larger than one already recorded allocates nothing, and the
    /// writer's memory does not grow with the stream.
    frame: Vec<u8>,
    /// Records in the log: the next record's `seq`.
    seq: u64,
    /// Records appended since the log was last synced.
    unsynced: u64,
    /// Records appended since the `checkpoint_every` cadence last fired
    /// or `checkpoint` was called. Apart from `unsynced` so that the two
    /// cadences sync on the windows they always have.
    since_ckpt: u64,
    wal_appends: u64,
    wal_bytes: u64,
    ckpt_writes: u64,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The checkpoint files of the store layout before the log was the only
/// file. A directory holding one has a log that chains onto it, not
/// onto `seq` 0, which this reader would take for an empty shard.
fn old_layout_paths(dir: &Path, shard: usize) -> [PathBuf; 2] {
    ["ckpt", "ckpt.prev"].map(|ext| dir.join(format!("shard-{shard}.{ext}")))
}

/// The shard's spill-file path (used by the paged group table so all of
/// a shard's durable artifacts live together).
pub(crate) fn spill_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.spill"))
}

/// A record too long for the frame's length field is the caller's
/// input, not an I/O fault.
fn too_long(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.message)
}

impl ShardStore {
    fn over(cfg: &StoreConfig, log: File, seq: u64, wal_bytes: u64) -> Self {
        ShardStore {
            checkpoint_every: cfg.checkpoint_every,
            fsync: cfg.fsync,
            log,
            frame: Vec::new(),
            seq,
            unsynced: 0,
            since_ckpt: 0,
            wal_appends: 0,
            wal_bytes,
            ckpt_writes: 0,
        }
    }

    /// Start a fresh durable run for one shard, removing any previous
    /// run's files for it (of this layout or the older one).
    pub fn create(cfg: &StoreConfig, shard: usize) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let [ckpt, prev] = old_layout_paths(&cfg.dir, shard);
        for p in [wal_path(&cfg.dir, shard), spill_path(&cfg.dir, shard), ckpt, prev] {
            match fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let log = OpenOptions::new().create(true).append(true).open(wal_path(&cfg.dir, shard))?;
        Ok(Self::over(cfg, log, 0, 0))
    }

    /// Resume a durable run: recover the shard's state and go on
    /// appending to its log, after cutting a damaged tail off in place.
    pub fn open_resumed(cfg: &StoreConfig, shard: usize) -> io::Result<(Self, RecoveredShard)> {
        let (recovered, valid_bytes) = scan_log(&cfg.dir, shard)?;
        let log = OpenOptions::new().create(true).append(true).open(wal_path(&cfg.dir, shard))?;
        if log.metadata()?.len() != valid_bytes {
            log.set_len(valid_bytes)?;
            log.sync_all()?;
        }
        let store = Self::over(cfg, log, recovered.outputs.len() as u64, valid_bytes);
        Ok((store, recovered))
    }

    /// Durably record one closed window — one encode into the recycled
    /// frame, one write — and sync the log when the fsync policy or the
    /// checkpoint cadence says so.
    pub fn record_window(&mut self, rec: &WindowRecord<'_>) -> io::Result<()> {
        let frame = &mut self.frame;
        frame.clear();
        let start = begin_frame(frame);
        put_u64(frame, self.seq);
        let output = begin_bytes(frame);
        put_window_output(frame, rec.output);
        end_bytes(frame, output).map_err(too_long)?;
        put_bytes(frame, rec.carry);
        put_bytes(frame, rec.aux);
        // Also covers `carry` and `aux`: each lies inside the payload.
        end_frame(frame, start).map_err(too_long)?;
        self.log.write_all(frame)?;
        self.seq += 1;
        self.wal_appends += 1;
        self.wal_bytes += frame.len() as u64;
        self.unsynced += 1;
        self.since_ckpt += 1;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(k) => self.unsynced >= u64::from(k),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        if self.checkpoint_every > 0 && self.since_ckpt >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.log.sync_data()?;
            self.unsynced = 0;
            self.ckpt_writes += 1;
        }
        Ok(())
    }

    /// A durability point: every window recorded so far is on the
    /// platter when this returns. The log is never rewritten, so there
    /// is nothing to write.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.since_ckpt = 0;
        self.sync()
    }

    /// Seal the run at end of stream with a final checkpoint.
    pub fn finalize(&mut self) -> io::Result<()> {
        self.checkpoint()
    }

    /// Records appended by this writer.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends
    }

    /// Bytes in the shard's log: those a resumed writer found there
    /// plus those it appended — the file's size.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Durability points reached by this writer: syncs of the log,
    /// whichever cadence asked.
    pub fn ckpt_writes(&self) -> u64 {
        self.ckpt_writes
    }

    /// Bytes rewritten by checkpoints: 0, the log is never rewritten.
    /// Kept because the benchmark reads it.
    pub fn ckpt_bytes(&self) -> u64 {
        0
    }

    /// Windows recorded since the last durability point (the
    /// checkpoint age, in windows): what power loss would cost now.
    pub fn windows_since_ckpt(&self) -> u64 {
        self.unsynced
    }

    /// Windows durably recorded in total.
    pub fn windows_recorded(&self) -> u64 {
        self.seq
    }
}

/// The next record of the log if it is whole and carries `seq`: its
/// output, carry and aux.
fn take_record<'a>(r: &mut Reader<'a>, seq: u64) -> Option<(WindowOutput, &'a [u8], &'a [u8])> {
    let mut payload = Reader::new(take_frame(r).ok()?);
    if payload.take_u64().ok()? != seq {
        return None;
    }
    let mut output = Reader::new(payload.take_bytes().ok()?);
    let out = take_window_output(&mut output).ok()?;
    let carry = payload.take_bytes().ok()?;
    let aux = payload.take_bytes().ok()?;
    (output.is_empty() && payload.is_empty()).then_some((out, carry, aux))
}

/// Replay a shard's log up to its first damaged or out-of-chain record;
/// also returns the bytes of the log that replayed.
fn scan_log(dir: &Path, shard: usize) -> io::Result<(RecoveredShard, u64)> {
    for old in old_layout_paths(dir, shard) {
        if old.try_exists()? {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: a checkpoint file of the older store layout, which this build cannot \
                     read (it keeps one log per shard); recover the directory with the build \
                     that wrote it, or start a fresh run in it",
                    old.display()
                ),
            ));
        }
    }
    let log = match fs::read(wal_path(dir, shard)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut outputs = Vec::new();
    let (mut carry, mut aux): (&[u8], &[u8]) = (&[], &[]);
    let mut r = Reader::new(&log);
    let mut valid = 0;
    while let Some((out, c, a)) = take_record(&mut r, outputs.len() as u64) {
        outputs.push(out);
        (carry, aux) = (c, a);
        valid = log.len() - r.remaining();
    }
    let watermark = outputs.last().map(|out| out.window.clone());
    let state = RecoveredShard { outputs, carry: carry.to_vec(), aux: aux.to_vec(), watermark };
    Ok((state, valid as u64))
}

/// Recover one shard's durable state: every record of its log up to the
/// first that is torn, corrupt or out of chain. Never panics on damaged
/// input — a bad record simply ends the replay. A directory of the
/// older checkpoint-file layout is refused with an error naming the
/// file, not misread as an empty shard.
pub fn recover_shard(dir: &Path, shard: usize) -> io::Result<RecoveredShard> {
    scan_log(dir, shard).map(|(state, _)| state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sso_core::operator::WindowStats;
    use sso_types::Value;

    fn out(w: u64, rows: u64) -> WindowOutput {
        WindowOutput {
            window: Tuple::new(vec![Value::U64(w)]),
            rows: (0..rows)
                .map(|i| Tuple::new(vec![Value::U64(w), Value::U64(i), Value::F64(i as f64)]))
                .collect(),
            stats: WindowStats { tuples: rows * 2, output_rows: rows, ..Default::default() },
            uncovered: 0,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sso-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn record(store: &mut ShardStore, w: u64, carry: &[u8], aux: &[u8]) {
        let o = out(w, 3);
        store.record_window(&WindowRecord { output: &o, carry, aux }).unwrap();
    }

    #[test]
    fn wal_only_recovery_round_trips() {
        let dir = tmpdir("walonly");
        let cfg = StoreConfig { checkpoint_every: 0, ..StoreConfig::new(&dir) };
        let mut store = ShardStore::create(&cfg, 0).unwrap();
        record(&mut store, 1, b"carry1", b"aux1");
        record(&mut store, 2, b"carry2", b"aux2");
        drop(store); // crash: no finalize
        let rec = recover_shard(&dir, 0).unwrap();
        assert_eq!(rec.outputs.len(), 2);
        assert_eq!(rec.outputs[1].rows.len(), 3);
        assert_eq!(rec.carry, b"carry2");
        assert_eq!(rec.aux, b"aux2");
        assert_eq!(rec.watermark, Some(Tuple::new(vec![Value::U64(2)])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_wal_recovery() {
        let dir = tmpdir("ckptwal");
        let cfg = StoreConfig { checkpoint_every: 2, ..StoreConfig::new(&dir) };
        let mut store = ShardStore::create(&cfg, 3).unwrap();
        for w in 1..=5 {
            record(&mut store, w, format!("c{w}").as_bytes(), b"");
        }
        assert_eq!(store.ckpt_writes(), 2, "checkpoints at windows 2 and 4");
        assert_eq!(store.windows_since_ckpt(), 1);
        assert_eq!(store.ckpt_bytes(), 0, "a checkpoint writes nothing");
        assert_eq!(store.wal_bytes(), fs::metadata(wal_path(&dir, 3)).unwrap().len());
        drop(store);
        let rec = recover_shard(&dir, 3).unwrap();
        assert_eq!(rec.outputs.len(), 5);
        assert_eq!(rec.carry, b"c5");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_dropped_not_fatal() {
        let dir = tmpdir("torn");
        let cfg = StoreConfig { checkpoint_every: 0, ..StoreConfig::new(&dir) };
        let mut store = ShardStore::create(&cfg, 0).unwrap();
        record(&mut store, 1, b"c1", b"");
        record(&mut store, 2, b"c2", b"");
        drop(store);
        // Tear the last record.
        let p = wal_path(&dir, 0);
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        let rec = recover_shard(&dir, 0).unwrap();
        assert_eq!(rec.outputs.len(), 1, "torn second record dropped");
        assert_eq!(rec.carry, b"c1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_log_is_synced_on_the_windows_the_checkpoint_file_was() {
        // After which of 7 windows the parent synced a file: its WAL
        // under the fsync policy (a checkpoint restarted the `every=N`
        // count), or the checkpoint file it wrote every
        // `checkpoint_every` windows and at `finalize`.
        let cases: [(FsyncPolicy, u64, &[u64]); 6] = [
            (FsyncPolicy::Always, 0, &[1, 2, 3, 4, 5, 6, 7]),
            (FsyncPolicy::Always, 2, &[1, 2, 3, 4, 5, 6, 7]),
            (FsyncPolicy::EveryN(3), 0, &[3, 6]),
            (FsyncPolicy::EveryN(3), 2, &[2, 4, 6]),
            (FsyncPolicy::Never, 0, &[]),
            (FsyncPolicy::Never, 2, &[2, 4, 6]),
        ];
        for (fsync, checkpoint_every, expected) in cases {
            let dir = tmpdir(&format!("cadence-{fsync}-{checkpoint_every}"));
            let cfg = StoreConfig { dir: dir.clone(), checkpoint_every, fsync };
            let mut store = ShardStore::create(&cfg, 0).unwrap();
            let mut synced_after = Vec::new();
            for w in 1..=7 {
                let before = store.ckpt_writes();
                record(&mut store, w, b"c", b"");
                if store.ckpt_writes() > before {
                    synced_after.push(w);
                }
            }
            assert_eq!(
                synced_after, expected,
                "fsync {fsync}, checkpoint_every {checkpoint_every}"
            );
            // Window 7 is unsynced unless the policy is `always`.
            let before = store.ckpt_writes();
            let left = u64::from(fsync != FsyncPolicy::Always);
            store.finalize().unwrap();
            assert_eq!(
                store.ckpt_writes() - before,
                left,
                "finalize syncs what is unsynced ({fsync})"
            );
            assert_eq!(store.windows_since_ckpt(), 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_old_layout_directory_is_refused_and_a_fresh_run_cleans_it() {
        let dir = tmpdir("oldlayout");
        let cfg = StoreConfig::new(&dir);
        // What the older build left behind: a checkpoint file (magic
        // SSOSTOR1) and a log that chains onto it.
        let mut store = ShardStore::create(&cfg, 0).unwrap();
        record(&mut store, 1, b"c1", b"");
        drop(store);
        for ext in ["ckpt", "ckpt.prev"] {
            let old = dir.join(format!("shard-0.{ext}"));
            fs::write(&old, b"SSOSTOR1").unwrap();
            let refused = recover_shard(&dir, 0).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
            assert!(refused.to_string().contains(&format!("shard-0.{ext}:")), "{refused}");
            let refused = ShardStore::open_resumed(&cfg, 0).err().expect("resume is refused too");
            assert!(refused.to_string().contains("older store layout"), "{refused}");
            fs::remove_file(&old).unwrap();
        }
        assert_eq!(recover_shard(&dir, 0).unwrap().outputs.len(), 1, "nothing else is in the way");
        fs::write(dir.join("shard-0.ckpt"), b"SSOSTOR1").unwrap();
        fs::write(dir.join("shard-0.ckpt.prev"), b"SSOSTOR1").unwrap();
        let mut store = ShardStore::create(&cfg, 0).unwrap();
        record(&mut store, 5, b"c5", b"");
        drop(store);
        let rec = recover_shard(&dir, 0).unwrap();
        assert_eq!(rec.outputs.len(), 1);
        assert_eq!(rec.carry, b"c5");
        let left: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["shard-0.wal"], "a fresh run leaves the log and nothing else");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("every=16").unwrap(), FsyncPolicy::EveryN(16));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryN(4).to_string(), "every=4");
    }
}
