//! # feather-suite
//!
//! The workspace member that owns the repository-level integration tests
//! (`tests/` at the workspace root) and the runnable examples (`examples/`
//! at the workspace root). The library itself is empty.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
