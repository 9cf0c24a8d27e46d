//! Determinism self-tests: a seed fixes the operation sequence and the
//! engine's registry counts exactly; another seed changes the sequence;
//! and the calibration kernel and the oracle share no engine code.

use dc_perfbench::harness::{replay, Workload};
use dc_perfbench::workloads::quantifier_reads::QuantifierReads;
use dc_perfbench::workloads::recursive_solve::RecursiveSolve;
use dc_perfbench::workloads::standing_rw::StandingRw;

fn repeats_exactly<W: Workload>(n: usize) {
    let data = W::generate();
    let a = replay::<W>(&data, 11, n).unwrap();
    let b = replay::<W>(&data, 11, n).unwrap();
    assert_eq!(a.failed, 0, "operations failed");
    assert_eq!(a.ops, b.ops, "one seed gave two operation sequences");
    assert_eq!(
        a.counts, b.counts,
        "one seed gave two sets of registry counts"
    );
    let c = replay::<W>(&data, 12, n).unwrap();
    assert_ne!(a.ops, c.ops, "two seeds gave one operation sequence");
}

#[test]
fn recursive_solve_is_deterministic() {
    repeats_exactly::<RecursiveSolve>(12);
}

#[test]
fn quantifier_reads_is_deterministic() {
    repeats_exactly::<QuantifierReads>(60);
}

#[test]
fn standing_rw_is_deterministic() {
    repeats_exactly::<StandingRw>(60);
}

/// The calibration kernel and the oracle use only `std`: no engine
/// change can move the kernel's time or share a bug with the oracle.
#[test]
fn kernel_and_oracle_import_no_engine_code() {
    for (file, src) in [
        ("calib.rs", include_str!("../src/calib.rs")),
        ("oracle.rs", include_str!("../src/oracle.rs")),
    ] {
        for line in src.lines().map(str::trim) {
            if line.starts_with("use ") {
                assert!(
                    line.starts_with("use std::") || line == "use super::*;",
                    "{file}: {line}"
                );
            }
            assert!(!line.contains("dc_"), "{file} names engine code: {line}");
        }
    }
}
