//! The repo benchmark: seven calibrated workloads from the `ListCore` fast
//! path to loopback TCP, measured strictly from outside the program, plus
//! an outside-in cost ladder. See `README.md` in this directory.

pub mod calib;
pub mod compare;
pub mod drive;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod opstream;
pub mod run;
pub mod span;
pub mod stats;
pub mod sys;
pub mod trial;
pub mod workloads;
