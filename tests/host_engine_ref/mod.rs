//! The host engine as it was before shift/mask indexing, branch-site
//! stepping and cost tables: the reference that `host_engine_diff`
//! compares the production engine against, bit for bit. Test-only; do
//! not change its arithmetic.

pub mod branch;
pub mod cache;
pub mod dsb;
pub mod engine;
pub mod tlb;
