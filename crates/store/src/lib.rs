//! # sso-store
//!
//! Durable operator state for the stream-sampling runtime:
//!
//! * **window-boundary checkpoints** — at every window close the
//!   operator's persistent state is exactly its cross-window carry-over
//!   (the group and supergroup tables are empty at the boundary), so a
//!   shard snapshot is the emitted window outputs plus the carry-over
//!   SFUN states and library-auxiliary records, written as a versioned,
//!   checksummed, length-prefixed file per shard;
//! * **a carry-over WAL** — between checkpoints, each closed window
//!   appends one framed record (output + carry + aux) to an append-only
//!   log, so a restarted worker resumes from the last *recorded* window
//!   and loses at most the window that was open when the process died;
//! * **a spill-to-disk pager of group aggregate states** — when a
//!   query's certified live state exceeds the configured
//!   `--state-budget`, the operator's group table keeps its keys and
//!   index in RAM and pages the groups' aggregate states, by group id,
//!   to a spill file under clock (second-chance) eviction, keeping
//!   their resident bytes under the budget.
//!
//! Recovery reads the newest valid checkpoint (falling back to the
//! previous one on checksum mismatch), replays WAL records that chain
//! onto it by sequence number, and hands the runtime a watermark: the
//! window key of the last durable window. The restarted run re-feeds
//! the deterministic input and skips every window at or below the
//! watermark, so surviving windows are byte-identical to a fault-free
//! run.

mod manifest;
mod pager;
mod wal;

pub use manifest::{read_manifest, write_manifest};
pub use pager::PagedGroupTable;
pub use wal::{recover_shard, FsyncPolicy, RecoveredShard, ShardStore, StoreConfig, WindowRecord};
