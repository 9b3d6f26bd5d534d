//! The flight-recorder dump format.
//!
//! `sso-store`-style framing: a magic + version preamble, then FNV-1a
//! checksummed length-prefixed frames —
//!
//! ```text
//! "SSOPROF1"  u32 version
//! frame 0: u8 reason | u32 lane_count
//! frame k: u8 kind | u32 index | u64 dropped | u32 count | count × 32B events
//! ```
//!
//! each frame on the wire as `u64 fnv_checksum | u32 len | payload`
//! (`sso_types::wire::put_frame`, the shard log's frame).
//! Events travel as their four packed little-endian `u64` words, so
//! encode → decode → encode is byte-identical (the round-trip proptest)
//! and a truncated or bit-flipped file fails loudly instead of decoding
//! garbage. Files are written `.tmp` + atomic rename.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use sso_types::wire::{put_frame, put_u32, put_u64, take_frame, Reader};

use crate::event::Event;
use crate::lane::LaneKind;
use crate::profiler::DumpReason;

/// File magic.
pub const MAGIC: &[u8; 8] = b"SSOPROF1";
/// Format version.
pub const VERSION: u32 = 1;
/// Default dump file name inside a directory (e.g. `--durable DIR`).
pub const DUMP_FILE: &str = "flight.ssoprof";

/// One lane's recorded suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDump {
    pub kind: LaneKind,
    pub index: u32,
    /// Events lost to ring wrap-around before the dump.
    pub dropped: u64,
    /// Oldest first.
    pub events: Vec<Event>,
}

impl LaneDump {
    /// The lane as renderers label it: `router/0`, `worker/3`, `merge`.
    pub fn name(&self) -> String {
        match self.kind {
            LaneKind::Worker | LaneKind::Router => format!("{}/{}", self.kind.name(), self.index),
            kind => kind.name().to_string(),
        }
    }
}

/// A decoded flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dump {
    pub reason: DumpReason,
    pub lanes: Vec<LaneDump>,
}

impl Dump {
    /// Total events across lanes.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total wrap-around losses across lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }
}

/// A dump frame is a header of five bytes or one lane's bounded ring.
const FRAME_FITS: &str = "a dump frame is far below 4 GiB";

/// Encode a dump to its canonical byte form.
pub fn encode_dump(dump: &Dump) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);

    let mut header = Vec::new();
    header.push(dump.reason as u8);
    put_u32(&mut header, dump.lanes.len() as u32);
    put_frame(&mut out, &header).expect(FRAME_FITS);

    for lane in &dump.lanes {
        let mut p = Vec::with_capacity(17 + lane.events.len() * 32);
        p.push(lane.kind as u8);
        put_u32(&mut p, lane.index);
        put_u64(&mut p, lane.dropped);
        put_u32(&mut p, lane.events.len() as u32);
        for e in &lane.events {
            for w in e.to_words() {
                put_u64(&mut p, w);
            }
        }
        put_frame(&mut out, &p).expect(FRAME_FITS);
    }
    out
}

/// Decode a dump; strict — bad magic, version, checksum, stage byte, or
/// trailing bytes all fail.
pub fn decode_dump(bytes: &[u8]) -> Result<Dump, String> {
    let mut r = Reader::new(bytes);
    let magic: Vec<u8> =
        (0..8).map(|_| r.take_u8()).collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    if magic != MAGIC {
        return Err("not a flight-recorder dump (bad magic)".into());
    }
    let version = r.take_u32().map_err(|e| e.to_string())?;
    if version != VERSION {
        return Err(format!("unsupported dump version {version} (expected {VERSION})"));
    }

    let header = take_frame(&mut r).map_err(|e| e.to_string())?;
    let mut hr = Reader::new(header);
    let reason = DumpReason::from_u8(hr.take_u8().map_err(|e| e.to_string())?)
        .ok_or_else(|| "unknown dump reason".to_string())?;
    let lane_count = hr.take_u32().map_err(|e| e.to_string())?;
    if !hr.is_empty() {
        return Err("trailing bytes in header frame".into());
    }

    // Counts come from the file: cap what they reserve, so a corrupt
    // count fails at the missing frame instead of in the allocator.
    let mut lanes = Vec::with_capacity((lane_count as usize).min(1 << 16));
    for _ in 0..lane_count {
        let frame = take_frame(&mut r).map_err(|e| e.to_string())?;
        let mut fr = Reader::new(frame);
        let kind = LaneKind::from_u8(fr.take_u8().map_err(|e| e.to_string())?)
            .ok_or_else(|| "unknown lane kind".to_string())?;
        let index = fr.take_u32().map_err(|e| e.to_string())?;
        let dropped = fr.take_u64().map_err(|e| e.to_string())?;
        let count = fr.take_u32().map_err(|e| e.to_string())?;
        let mut events = Vec::with_capacity((count as usize).min(1 << 16));
        for _ in 0..count {
            let mut w = [0u64; 4];
            for word in &mut w {
                *word = fr.take_u64().map_err(|e| e.to_string())?;
            }
            events.push(
                Event::from_words(w).ok_or_else(|| "corrupt event (bad stage byte)".to_string())?,
            );
        }
        if !fr.is_empty() {
            return Err("trailing bytes in lane frame".into());
        }
        lanes.push(LaneDump { kind, index, dropped, events });
    }
    if !r.is_empty() {
        return Err("trailing bytes after last lane frame".into());
    }
    Ok(Dump { reason, lanes })
}

/// Write a dump whole or not at all: temp file, flush, sync, atomic
/// rename — a crash mid-write leaves the previous dump intact.
pub fn write_dump_file(path: &Path, dump: &Dump) -> io::Result<()> {
    let bytes = encode_dump(dump);
    let tmp = path.with_extension("ssoprof.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Read and decode a dump file.
pub fn read_dump_file(path: &Path) -> io::Result<Dump> {
    let bytes = fs::read(path)?;
    decode_dump(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    fn sample() -> Dump {
        Dump {
            reason: DumpReason::Crash,
            lanes: vec![
                LaneDump {
                    kind: LaneKind::Router,
                    index: 0,
                    dropped: 3,
                    events: vec![
                        Event::new(Stage::Ingest, 100, 50).aux(7),
                        Event::new(Stage::Route, 150, 10).shard(1).batch(0).aux(1024),
                    ],
                },
                LaneDump { kind: LaneKind::Worker, index: 1, dropped: 0, events: vec![] },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let d = sample();
        let bytes = encode_dump(&d);
        let back = decode_dump(&bytes).expect("decodes");
        assert_eq!(back, d);
        assert_eq!(encode_dump(&back), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_dump(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_dump(&bytes).is_err());
        assert!(decode_dump(&bytes[..bytes.len() - 2]).is_err(), "torn tail");
        assert!(decode_dump(b"NOTADUMP").is_err());
    }

    #[test]
    fn huge_declared_counts_are_errors_not_allocations() {
        let mut bytes = MAGIC.to_vec();
        put_u32(&mut bytes, VERSION);
        let mut header = vec![DumpReason::Manual as u8];
        put_u32(&mut header, u32::MAX);
        put_frame(&mut bytes, &header).unwrap();
        assert!(decode_dump(&bytes).is_err(), "u32::MAX lanes declared, none present");
        let mut lane = vec![LaneKind::Worker as u8];
        put_u32(&mut lane, 0);
        put_u64(&mut lane, 0);
        put_u32(&mut lane, u32::MAX);
        put_frame(&mut bytes, &lane).unwrap();
        assert!(decode_dump(&bytes).is_err(), "u32::MAX events declared, none present");
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("ssoprof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DUMP_FILE);
        let d = sample();
        write_dump_file(&path, &d).unwrap();
        assert_eq!(read_dump_file(&path).unwrap(), d);
        assert!(!path.with_extension("ssoprof.tmp").exists(), "tmp renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
