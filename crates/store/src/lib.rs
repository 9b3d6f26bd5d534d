//! # sso-store
//!
//! Durable operator state for the stream-sampling runtime:
//!
//! * **one append-only log per shard** — at every window close the
//!   operator's persistent state is exactly its cross-window carry-over
//!   (the group and supergroup tables are empty at the boundary), so
//!   each closed window appends one checksummed, length-prefixed record
//!   — its output, the carry-over SFUN states and the library-auxiliary
//!   records — and that record is final: nothing rewrites it. A
//!   restarted worker resumes from the last *recorded* window and loses
//!   at most the window that was open when the process died;
//! * **checkpoints as durability points** — every `checkpoint_every`
//!   windows, and at end of stream, the log is synced; under the
//!   default fsync policy nothing else is, so that cadence bounds what
//!   a power failure can cost;
//! * **a spill-to-disk pager of group aggregate states** — when a
//!   query's certified live state exceeds the configured
//!   `--state-budget`, the operator's group table keeps its keys and
//!   index in RAM and pages the groups' aggregate states, by group id,
//!   to a spill file under clock (second-chance) eviction, keeping
//!   their resident bytes under the budget.
//!
//! Recovery replays the log's records in sequence up to the first that
//! is torn, corrupt or out of chain, and hands the runtime a watermark:
//! the window key of the last durable window. The restarted run
//! re-feeds the deterministic input and skips every window at or below
//! the watermark, so surviving windows are byte-identical to a
//! fault-free run.

mod manifest;
mod pager;
mod wal;

pub use manifest::{read_manifest, write_manifest};
pub use pager::PagedGroupTable;
pub use wal::{recover_shard, FsyncPolicy, RecoveredShard, ShardStore, StoreConfig, WindowRecord};
