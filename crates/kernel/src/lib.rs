//! # dyncode-kernel
//!
//! The arena-backed fast cells for the dominant protocol families,
//! sitting *below* `dyncode-core` in the crate graph: it knows nothing
//! about `ProtocolSpec`s or `Instance`s — `core::runner` builds a
//! [`FastCell`] from a spec and hands it to [`run_fast`].
//!
//! The round loop itself ([`run_fast`], the [`FastCell`] surface and the
//! [`CsrTopology`] snapshot) lives in `dyncode_dynet::simulator` and is
//! re-exported here. Per-node protocols run in it through
//! `dyncode_dynet::simulator::ProtocolCell`, which keeps one message slot
//! per node and reuses one inbox buffer. The cells below replace the
//! per-node state machines themselves where elimination or message
//! copying dominates:
//!
//! * [`Gf2Cell`] — per-node GF(2) RLNC state as one word-packed row
//!   arena, with incremental Gaussian elimination running directly on
//!   `u64` limb slices (`dyncode_gf::bits::limb_xor` and friends) instead
//!   of per-packet `Vec` clones.
//! * [`Gf256Cell`] — `field-broadcast(gf256)` with *bit-planar* rows
//!   (plane j holds bit j of every symbol, 64 symbols per word), turning
//!   constant-multiply row ops into batched word XORs, plus rank-k
//!   saturation shortcuts on both compose and delivery.
//! * [`DenseCell`] — the dense-field analogue for
//!   `field-broadcast(gf257|m61)`: per-node bases in lazily grown
//!   row arenas, fast-reduction row ops via `Field::axpy`,
//!   packets crossing the arena packed into chunked-LE `u64` words
//!   (`dyncode_gf::pack`), and the rank-k saturation shortcut.
//! * [`ForwardCell`] — the knowledge-based forwarding schedules with a
//!   flat per-round message arena instead of per-node `Vec<usize>`
//!   messages and inbox clones.
//! * [`QuorumCell`] — the quorum watermark protocols as packed per-peer
//!   round tables.
//!
//! **Equivalence contract.** For every cell, [`run_fast`] produces a
//! `RunResult` bit-identical to the reference protocol's run through
//! `ProtocolCell` — rounds, bit accounting, adversary schedule, and
//! per-round history. This holds because each cell replays the
//! reference protocol's event order exactly: the adversary sees the same
//! [`KnowledgeView`](dyncode_dynet::adversary::KnowledgeView) each
//! round (or, if it is oblivious, the same blank one), protocol coins are
//! drawn in the same order in `compose_all` (one per basis row per
//! compose for the coding cells, none for forwarding), and deliveries
//! apply per node in ascending neighbor order. [`Gf2Cell`] and
//! [`Gf256Cell`] only record their coins in `compose_all` and build a
//! message in `deliver_all`, before the first insert, and only if a
//! receiver below rank k hears it: no basis changes between the two
//! calls, so every built message equals the eagerly composed one.
//! `tests/kernel_equivalence.rs` locks the contract across the
//! eligible-spec × adversary × seed matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod densecell;
pub mod forward;
pub mod gf256cell;
pub mod gf2cell;
pub mod quorumcell;

pub use densecell::DenseCell;
pub use dyncode_dynet::simulator::{run_fast, CsrTopology, FastCell};
pub use forward::ForwardCell;
pub use gf256cell::Gf256Cell;
pub use gf2cell::{Gf2Cell, Gf2ViewMode};
pub use quorumcell::QuorumCell;

use std::fmt;

/// Which execution backend a run uses — threaded through
/// `core::runner::run_spec_kernel`, the engine's `kernel =` campaign key,
/// and the bench CLI's `--kernel` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// The reference per-node state machines, run in the one round loop
    /// through `ProtocolCell`, for every spec. The default: committed
    /// baselines are reference runs.
    #[default]
    Reference,
    /// The fast cells (the dedicated arena-backed cells where a family
    /// has one). Rejected (an error naming the eligible families) on a
    /// spec outside them — use [`Kernel::Auto`] to fall back instead.
    Fast,
    /// Fast for eligible specs, Reference otherwise.
    Auto,
}

impl Kernel {
    /// The spec-text name (`reference` | `fast` | `auto`).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Fast => "fast",
            Kernel::Auto => "auto",
        }
    }

    /// Parses a spec-text name; unknown names enumerate the valid ones.
    pub fn parse(s: &str) -> Result<Kernel, String> {
        match s.trim() {
            "reference" => Ok(Kernel::Reference),
            "fast" => Ok(Kernel::Fast),
            "auto" => Ok(Kernel::Auto),
            other => Err(format!(
                "unknown kernel {other:?}; valid kernels: reference, fast, auto"
            )),
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for k in [Kernel::Reference, Kernel::Fast, Kernel::Auto] {
            assert_eq!(Kernel::parse(k.name()).unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(Kernel::default(), Kernel::Reference);
        let err = Kernel::parse("turbo").unwrap_err();
        assert!(err.contains("valid kernels"), "{err}");
    }
}
