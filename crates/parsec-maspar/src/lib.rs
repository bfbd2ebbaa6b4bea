//! PARSEC on the (simulated) MasPar MP-1 — the paper's §2.2.
//!
//! This crate maps CDG parsing onto the SIMD machine exactly as the paper
//! describes, following its six design decisions:
//!
//! 1. **Arc matrices are built before unary propagation** (Figure 9), so
//!    unary constraints are applied by zeroing rows/columns of the
//!    matrices rather than shrinking domains.
//! 2. **No shared memory**: every PE computes what it needs from its own
//!    PE id, or receives it by ACU broadcast (closure capture) or the
//!    global router (gathers of the alive masks).
//! 3. **scanOr()/scanAnd() replace the P-RAM's constant-time OR/AND**,
//!    costing O(log #PE) router passes each.
//! 4. **Rows/columns are zeroed, never removed** — matrix dimensions are
//!    fixed for the whole parse.
//! 5. **Filtering runs a constant number of consistency-maintenance
//!    iterations** (default 10 — "typically fewer than 10 are required").
//! 6. **PEs are virtualized**: each physical PE simulates a constant
//!    number of virtual PEs — an l×l label submatrix per virtual PE
//!    (Figure 13), and ⌈q²n⁴/16384⌉ instruction slices once the network
//!    outgrows the array (the 0.15 s → 0.45 s staircase of the Results
//!    section).
//!
//! The PE layout ([`layout`]) is Figure 11's: virtual PE `cg·G + rg` holds
//! the l×l submatrix connecting *column* role-value group `cg` to *row*
//! group `rg`, where a group is a (word, role, modifiee) triple and
//! G = q·n² groups exist; the diagonal blocks (a role paired with itself)
//! are invalid, exactly the "PEs 0–2 disabled" of the figure. Consistency
//! maintenance ([`engine`]) is Figure 12's two-phase scan: per column
//! label, a local row-OR, a `scanOr` within each (word, role) block of the
//! column, then a `scanAnd` across block-boundary PEs — repeated l times
//! (Figure 13) — after which the surviving alive masks are routed back to
//! every PE and dead rows/columns are zeroed.
//!
//! The engine requires lexically unambiguous sentences (as does the
//! paper); the sequential and P-RAM engines additionally support
//! category-ambiguous words.
//!
//! [`engine::parse_maspar_checked`] additionally runs the parse under an
//! injected fault schedule and/or a resource budget, detecting corruption
//! by probing and double execution and recovering by retiring dead PEs
//! and re-executing corrupted phases — or returning a typed
//! [`cdg_core::EngineError`]; never a silently wrong network.

pub mod api;
pub mod engine;
pub mod layout;
pub mod retry;

pub use api::Maspar;
pub use engine::{
    parse_maspar, parse_maspar_checked, MasparOptions, MasparOutcome, PhaseStats, RecoveryReport,
};
pub use layout::Layout;
pub use retry::{faults_for_attempt, parse_with_retry_warm, request_key, RetryPolicy, RetryStats};
