//! Library half of the benchmark, shared by the `perfbench` binary and
//! the package's tests.

pub mod calib;
pub mod harness;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod spans;
pub mod workloads;
