//! The workspace's test support, each helper defined once. Tests of
//! every crate name it under `[dev-dependencies]` only: no product
//! crate's `[dependencies]` may (`product-closure`), and nothing here
//! depends on more than std, [`netclust_prefix`] and the proptest shim,
//! so a crate's own tests link no second copy of it.
//!
//! * [`TempDir`]: every file a test makes lives in one, removed when it
//!   drops, so a failing test leaves nothing behind either. It is the
//!   only caller of `std::env::temp_dir` (`one-temp-guard`).
//! * [`KillOnDrop`], [`Client`], [`get`], [`json_u64`], [`wait_for`] and
//!   [`wait_for_port`]: a daemon under test and the wire to it.
//! * [`Edit`], [`arb_edit`] and [`apply`]: byte edits of generated
//!   inputs, over an alphabet and a set of [`Op`]s each suite picks.
//! * [`net`], [`nets`] and [`addr`] read specs the test wrote;
//!   [`number`], [`octet`] and [`dotted`] are the pieces of the naive
//!   recognizers the parsers' properties hold them to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edit;
mod http;
mod spec;
mod temp;

pub use edit::{apply, arb_edit, Edit, Op};
pub use http::{get, json_u64, wait_for, wait_for_port, Client, KillOnDrop, Reply};
pub use spec::{addr, dotted, net, nets, number, octet};
pub use temp::TempDir;
