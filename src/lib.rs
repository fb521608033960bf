//! Umbrella crate for the Promatch reproduction workspace.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! integration tests can depend on a single package. Downstream users would
//! normally depend on the individual crates (`promatch`, `mwpm`, ...)
//! directly.

#![forbid(unsafe_code)]

pub use astrea;
pub use blossom;
pub use decoding_graph;
pub use ler;
pub use mwpm;
pub use predecoders;
pub use promatch;
pub use qsim;
pub use realtime;
pub use service;
pub use surface_code;
pub use telemetry;
pub use unionfind;
