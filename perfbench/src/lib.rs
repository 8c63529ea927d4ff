//! End-to-end and per-layer benchmark of the RETRO engine on the TMDB
//! dataset at the paper's cardinalities. See `README.md` beside this crate
//! for why each workload exists and which layer each metric times.

pub mod fixture;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;
