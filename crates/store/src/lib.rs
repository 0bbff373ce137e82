//! # fastframe-store
//!
//! The storage substrate of FastFrame (§4): a small in-memory column store
//! optimized for *scan-based without-replacement sampling*.
//!
//! The key pieces:
//!
//! * typed [`Column`]s (floating point, integer, dictionary-encoded
//!   categorical) assembled into a [`Table`] via [`TableBuilder`];
//! * a [`Catalog`] of per-column statistics — in particular the a-priori
//!   range bounds `[a, b]` that range-based error bounders require (§2.2.1);
//! * the [`Scramble`]: a randomly permuted copy of a table laid out in
//!   fixed-size [`block`]s, so that a sequential scan over blocks (starting
//!   anywhere) yields a uniform without-replacement sample of the rows
//!   (Definition 4);
//! * block-level [`BlockBitmapIndex`]es over categorical columns, used by
//!   active scanning to decide whether a block can contain rows for any
//!   currently-active group without touching the block itself (§4.3);
//! * [`Predicate`]s and scalar [`Expr`]essions, whose derived range bounds
//!   (Appendix B) come from interval arithmetic alone ([`expr`]);
//! * [`ScanStats`] counters so that the evaluation can report *blocks
//!   fetched*, the hardware-independent cost metric of §5.3;
//! * the [`BlockSource`] scan abstraction ([`source`]) over which the engine
//!   reads blocks, with per-block [`ZoneMap`]s for numeric range skipping;
//! * a persistent columnar segment format ([`persist`]) so a scramble's
//!   one-time shuffle cost is amortized across process runs: [`write_segment`]
//!   saves a [`Scramble`] to disk and the lazy [`SegmentReader`] decodes
//!   blocks on demand (see `docs/FORMAT.md` for the byte-level layout).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod bitmap;
pub mod block;
pub mod builder;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod expr;
pub mod persist;
pub mod predicate;
pub mod scramble;
pub mod selection;
pub mod source;
pub mod stats;
pub mod table;
pub mod zone;

pub use bitmap::{BitSet, BlockBitmapIndex};
pub use block::{BlockId, DEFAULT_BLOCK_SIZE};
pub use builder::TableBuilder;
pub use catalog::{Catalog, ColumnStats};
pub use column::{Column, ColumnData, DataType, Value};
pub use csv::{read_csv, read_csv_file, CsvOptions};
pub use expr::{BoundExpr, Expr};
pub use persist::{write_segment, SegmentReader};
pub use predicate::{BoundPredicate, Predicate};
pub use scramble::Scramble;
pub use source::{BlockRef, BlockSource};
pub use stats::ScanStats;
pub use table::{StoreError, StoreResult, Table};
pub use zone::{RangeFilter, ZoneMap};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bitmap::{BitSet, BlockBitmapIndex};
    pub use crate::block::{BlockId, DEFAULT_BLOCK_SIZE};
    pub use crate::builder::TableBuilder;
    pub use crate::catalog::{Catalog, ColumnStats};
    pub use crate::column::{Column, ColumnData, DataType, Value};
    pub use crate::expr::{BoundExpr, Expr};
    pub use crate::persist::{write_segment, SegmentReader};
    pub use crate::predicate::{BoundPredicate, Predicate};
    pub use crate::scramble::Scramble;
    pub use crate::source::{BlockRef, BlockSource};
    pub use crate::stats::ScanStats;
    pub use crate::table::{StoreError, StoreResult, Table};
    pub use crate::zone::{RangeFilter, ZoneMap};
}
