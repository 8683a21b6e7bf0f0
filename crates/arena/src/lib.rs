//! Zero-copy data-plane primitives for the LMQL runtime (DESIGN.md §13).
//!
//! The decode loop is the hot path of eager constrained decoding (the
//! paper's §4 "Performance Considerations"): every step extends the
//! interaction trace, every beam fork copies hypothesis state, and every
//! scheduler submission used to clone its token context twice. This crate
//! collects the three memory-architecture primitives that make those
//! operations cheap and allocation-bounded:
//!
//! - [`Rope`]: the interaction trace as an immutable, structurally shared
//!   chunk list. Cloning a rope (a beam fork) is one `Arc` refcount bump —
//!   `O(1)` and allocation-free regardless of trace length.
//! - [`intern`] / [`Interner`]: compiled program literals are interned to
//!   shared `Arc<str>` once at compile time, so emitting a prompt segment
//!   appends a chunk that *points at* the literal instead of copying it.
//! - [`Pool`]: a bounded free-list generalising the masker's old
//!   `SetPool` so any per-hypothesis scratch value (token bitsets,
//!   distributions, key buffers) can be recycled instead of reallocated.
//!
//! Everything here is dependency-free and deterministic; the counting-
//! allocator tests in `crates/core/tests/alloc_budget.rs` pin the
//! resulting budgets under the default `cargo test`.

mod intern;
mod pool;
mod rope;

pub use intern::{intern, Interner};
pub use pool::Pool;
pub use rope::Rope;
