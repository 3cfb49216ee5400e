//! The experiments, one per theorem/claim (index in DESIGN.md §4).
//!
//! Every experiment takes the shared [`ExpCtx`](crate::ctx::ExpCtx):
//! `ctx.quick` shrinks sweeps to smoke-test sizes (used by CI-style
//! runs), and every seed/config sweep routes through the context into the
//! `dyncode-engine` executor — parallel across `--threads N` workers,
//! recorded into the experiment's `BENCH_<id>.json` artifact, and
//! byte-identical regardless of thread count (each cell carries its own
//! seed; results return in submission order).

mod ablation;
mod broadcast;
mod coding;
mod crossover;
mod delivery;
mod fields;
mod forwarding;
mod progress;
mod quorum;
mod scenarios;
mod tstable;

pub use ablation::{e15, e16};
pub use broadcast::{e10, e4};
pub use coding::{e13, e14, e2, e5, e7, e8};
pub use crossover::e21;
pub use delivery::e22;
pub use fields::{e11, e9};
pub use forwarding::{e1, e6};
pub use progress::e17;
pub use quorum::e23;
pub use scenarios::{e18, e19, e20};
pub use tstable::{e12, e3};

use dyncode_core::params::{Instance, Params, Placement};
use dyncode_dynet::adversary::Adversary;
use dyncode_dynet::simulator::{run, Protocol, RunResult, SimConfig};

/// ⌈log₂ n⌉.
pub fn lgn(n: usize) -> usize {
    ((usize::BITS - (n.max(2) - 1).leading_zeros()) as usize).max(1)
}

/// The standard token size for size-n sweeps: d = ⌈log₂ n⌉ + 1 (big
/// enough for distinct values, the paper's Θ(log n) regime). Public so
/// the `trace replay` CLI parameterizes runs identically to e1–e20.
pub fn d_for(n: usize) -> usize {
    lgn(n) + 1
}

/// Runs one protocol instance to completion and returns the result,
/// asserting success. (Used inside engine cells for bespoke sweeps; plain
/// seed sweeps go through `ExpCtx::mean_rounds_spec`.)
pub(crate) fn run_to_done<P: Protocol>(
    mut proto: P,
    adv: &mut dyn Adversary,
    cap: usize,
    seed: u64,
) -> RunResult {
    let r = run(&mut proto, adv, &SimConfig::with_max_rounds(cap), seed);
    assert!(
        r.completed,
        "run failed to complete within {cap} rounds under {}",
        adv.name()
    );
    r
}

/// The standard one-token-per-node instance at size n.
pub(crate) fn standard_instance(n: usize, d: usize, b: usize, seed: u64) -> Instance {
    Instance::generate(Params::new(n, n, d, b), Placement::OneTokenPerNode, seed)
}

/// Standard metadata pairs for a `(n, k, d, b)` cell.
pub(crate) fn meta_nkdb(p: &Params) -> Vec<(&'static str, String)> {
    vec![
        ("n", p.n.to_string()),
        ("k", p.k.to_string()),
        ("d", p.d.to_string()),
        ("b", p.b.to_string()),
    ]
}
