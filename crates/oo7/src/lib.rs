//! OO7 benchmark database and the Yong–Naughton–Yu test application.
//!
//! This crate generates the event traces that drive the paper's
//! evaluation (§3.3–3.4): an OO7 database (Carey/DeWitt/Naughton, SIGMOD
//! '93) at the paper's *Small′* scale, exercised by a four-phase
//! application:
//!
//! 1. **GenDB** — build the database at a given connectivity;
//! 2. **Reorg1** — delete half the atomic parts of every composite part,
//!    then reinsert them *clustered* (per composite);
//! 3. **Traverse** — a read-only depth-first traversal over all parts
//!    (no pointer overwrites, so SAGA time stands still);
//! 4. **Reorg2** — delete half the atomic parts again, then reinsert them
//!    *declustered*: allocation is interleaved across composites, breaking
//!    the physical clustering of each composite's parts.
//!
//! The phases are the paper's variation of Yong–Naughton–Yu's workload:
//! the traversal is placed *between* the reorganizations to sharpen the
//! phase transitions, and both reorganizations delete half (not all) of
//! the parts so they perform similar amounts of work (§3.4).
//!
//! The generator maintains an in-memory mirror of the database so that
//! deletions clear exactly the right slots and reinsertion only stores
//! into free (null) slots — a correct application never overwrites
//! pointers it does not mean to kill.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod builder;
pub mod model;
pub mod params;
pub mod reorg;
pub mod schema;
pub mod stats;
pub mod traverse;

pub use app::{Oo7App, Phase};
pub use params::{ConnStyle, Oo7Params};
pub use schema::Kind;
pub use stats::DbCharacteristics;
