//! The first-class protocol registry: every algorithm the crate
//! implements as *data* — a parseable, `Display`-round-trippable
//! [`ProtocolSpec`] string plus a factory erasing the heterogeneous
//! message types behind one [`ErasedProtocol`] surface.
//!
//! The paper's central claims are comparisons *between* protocols
//! (Theorems 2.1/2.3/7.3/7.5), so the protocol axis deserves the same
//! treatment PR 3 gave workloads: campaign specs name protocols the way
//! they name scenarios (`protocol = greedy-forward, field-broadcast(gf256)`),
//! and the engine sweeps the full cross product.
//!
//! # Grammar
//!
//! A spec is `name` or `name(args)`, with comma-separated `key=value`
//! args (commas inside parentheses do not split list contexts — the same
//! paren-aware rule as scenario specs):
//!
//! ```text
//! token-forwarding                      Thm 2.1 baseline schedule
//! pipelined-forwarding                  pipelined at the cell's T
//! pipelined-forwarding(8)               pipelined at an explicit T
//! greedy-forward                        Thm 7.3, default phase constants
//! greedy-forward(gather=2,bcast=3)      configured gather/broadcast mults
//! priority-forward                      Thm 7.5, default phase constants
//! priority-forward(warmup=3,bcast=4)    configured warmup/broadcast mults
//! random-forward                        Lem 7.2 gathering, auto (2n) rounds
//! random-forward(rounds=96)             explicit forwarding rounds
//! naive-coded                           Cor 7.1 flooded-ID indexing
//! indexed-broadcast                     Lem 5.3 packed-GF(2) RLNC
//! field-broadcast(gf256)                Lem 5.3 over an arbitrary field
//! field-broadcast(m61,det=7)            Cor 6.2 deterministic advice mode
//! centralized                           Cor 2.6 header-free coding
//! patch-indexed                         §8 T-stable patch dissemination
//! quorum-watermark(f=1)                 consensus gossip to max_round⁺ = 8
//! quorum-watermark(f=2,rounds=16)       explicit watermark target
//! quorum-decide(f=1,q=4)                4f+1 quorum prevotes round q
//! ```
//!
//! [`ProtocolSpec::parse`] and the `Display` impl are mutually inverse on
//! values: `parse(spec.to_string()) == spec` for every valid spec
//! (property-tested in `tests/protocol_registry.rs`).

use crate::params::Instance;
use crate::protocols::{
    Centralized, FieldBroadcast, GreedyConfig, GreedyForward, IndexedBroadcast, NaiveCoded,
    PriorityConfig, PriorityForward, RandomForward, TokenForwarding,
};
use crate::term::{TerminationPredicate, QUORUM_DECISION, TOKEN_COMPLETION};
use dyncode_dynet::simulator::{Erased, ErasedProtocol};
use dyncode_dynet::split_top_level as split_args;
use dyncode_gf::{Gf2, Gf256, Gf257, Mersenne61};
use dyncode_quorum::{QuorumConfig, QuorumGoal, QuorumProtocol, DEFAULT_WATERMARK_ROUNDS};
use std::fmt;

/// The coding field of a [`ProtocolSpec::FieldBroadcast`] cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// GF(2) — the paper's default ("replace linear combinations by XORs").
    Gf2,
    /// GF(256) — the classic byte field of practical RLNC.
    Gf256,
    /// GF(257) — the smallest prime field wider than a byte.
    Gf257,
    /// GF(2⁶¹ − 1) — the large-field regime of Section 6.
    Mersenne61,
}

impl FieldKind {
    /// The spec name of this field.
    pub fn name(&self) -> &'static str {
        match self {
            FieldKind::Gf2 => "gf2",
            FieldKind::Gf256 => "gf256",
            FieldKind::Gf257 => "gf257",
            FieldKind::Mersenne61 => "m61",
        }
    }

    /// Parses a spec field name.
    pub fn parse(s: &str) -> Result<FieldKind, String> {
        match s {
            "gf2" => Ok(FieldKind::Gf2),
            "gf256" => Ok(FieldKind::Gf256),
            "gf257" => Ok(FieldKind::Gf257),
            "m61" => Ok(FieldKind::Mersenne61),
            other => Err(format!(
                "unknown field {other:?}; valid fields: gf2, gf256, gf257, m61"
            )),
        }
    }
}

/// A protocol as data: which algorithm a cell runs, with its configured
/// parameters. See the [module docs](self) for the spec grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// `token-forwarding` — the Theorem 2.1 baseline schedule.
    TokenForwarding,
    /// `pipelined-forwarding[(T)]` — the T-stable pipelined schedule;
    /// without an explicit T the cell's stability interval is used.
    PipelinedForwarding {
        /// Explicit pipelining interval; `None` adopts the cell's T.
        t: Option<usize>,
    },
    /// `greedy-forward[(gather=G,bcast=B)]` — Theorem 7.3 gather-then-code.
    GreedyForward {
        /// Phase-length constants (gather/broadcast multipliers).
        cfg: GreedyConfig,
    },
    /// `priority-forward[(warmup=W,bcast=B)]` — Theorem 7.5 random block
    /// priorities.
    PriorityForward {
        /// Phase-length constants (warmup/broadcast multipliers).
        cfg: PriorityConfig,
    },
    /// `random-forward[(rounds=auto|R)]` — the Lemma 7.2 gathering
    /// primitive (it gathers and identifies; it does not disseminate, so
    /// campaign cells running it report `completed = false` at the cap).
    RandomForward {
        /// Forwarding-phase rounds; `None` = auto = 2n.
        rounds: Option<usize>,
    },
    /// `naive-coded` — Corollary 7.1 flooded-ID indexing + coding.
    NaiveCoded,
    /// `indexed-broadcast` — Lemma 5.3 over packed GF(2).
    IndexedBroadcast,
    /// `field-broadcast(FIELD[,det=S])` — Lemma 5.3 over an arbitrary
    /// field; `det=S` switches to the Corollary 6.2 deterministic advice
    /// schedule seeded by S.
    FieldBroadcast {
        /// The coding field.
        field: FieldKind,
        /// Advice-schedule seed for deterministic mode; `None` = randomized.
        det: Option<u64>,
    },
    /// `centralized` — Corollary 2.6 header-free coding.
    Centralized,
    /// `patch-indexed` — the §8.3 T-stable patch dissemination. A
    /// charged-rounds model rather than a per-message simulation: it runs
    /// through [`crate::runner::run_spec_kernel`], not [`ProtocolSpec::build`].
    PatchIndexed,
    /// `quorum-watermark(f=F[,rounds=R])` — latest-round-per-peer
    /// consensus gossip; a node terminates when its monotone `max_round⁺`
    /// (the f+1 watermark over `max_rounds`) reaches `R`.
    QuorumWatermark {
        /// Fault bound; requires `n ≥ 5f+1` at build time.
        f: usize,
        /// Target round for `max_round⁺` (default 8, collapsed by
        /// `Display`).
        rounds: usize,
    },
    /// `quorum-decide(f=F,q=Q)` — as above, but a node terminates when
    /// `max_round` (the 4f+1 quorum watermark) reaches the decision
    /// round `Q`: a full quorum is known to have prevoted round Q.
    QuorumDecide {
        /// Fault bound; requires `n ≥ 5f+1` at build time.
        f: usize,
        /// Decision round the 4f+1 watermark must reach.
        q: usize,
    },
}

/// One registry row: spec grammar, defaults, and the headline claim —
/// what `experiments protocols` prints and error messages enumerate.
#[derive(Clone, Copy, Debug)]
pub struct SpecInfo {
    /// The bare spec name.
    pub name: &'static str,
    /// The full grammar with optional parameters.
    pub grammar: &'static str,
    /// Parameter meanings and defaults.
    pub params: &'static str,
    /// The algorithm and its paper result.
    pub summary: &'static str,
    /// The termination predicate's registry label (see [`crate::term`]) —
    /// what "completed" verifies for this family.
    pub termination: &'static str,
}

/// The registry: every protocol the crate implements, in display order.
pub fn registry() -> &'static [SpecInfo] {
    const TOKENS: &str = "all-tokens-decoded";
    &[
        SpecInfo {
            name: "token-forwarding",
            grammar: "token-forwarding",
            params: "none",
            summary: "KLO batched smallest-first flooding (Thm 2.1 baseline)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "pipelined-forwarding",
            grammar: "pipelined-forwarding[(T)]",
            params: "T = pipelining interval (default: the cell's T)",
            summary: "T-stable pipelined forwarding schedule (Thm 2.1)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "greedy-forward",
            grammar: "greedy-forward[(gather=G,bcast=B)]",
            params: "G = gather phase mult of n (default 1), B = broadcast mult (default 2)",
            summary: "gather-then-code, O(nkd/b² + nb) (Thm 7.3)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "priority-forward",
            grammar: "priority-forward[(warmup=W,bcast=B)]",
            params: "W = warmup mult of n (default 2), B = broadcast mult (default 3)",
            summary: "random block priorities, O(log n/b · nkd/b + n log n) (Thm 7.5)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "random-forward",
            grammar: "random-forward[(rounds=auto|R)]",
            params: "R = forwarding rounds (default auto = 2n)",
            summary: "the gathering primitive; reaches √(bk/d) tokens (Lem 7.2)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "naive-coded",
            grammar: "naive-coded",
            params: "none",
            summary: "flooded-ID indexing + coding, O(nk·log n/b) (Cor 7.1)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "indexed-broadcast",
            grammar: "indexed-broadcast",
            params: "none",
            summary: "packed-GF(2) RLNC k-indexed broadcast, O(n + k) (Lem 5.3)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "field-broadcast",
            grammar: "field-broadcast(gf2|gf256|gf257|m61[,det=S])",
            params: "field = coding field; det=S = deterministic advice seed (Cor 6.2)",
            summary: "indexed broadcast over any field; header k·lg q (Lem 5.3, q ≥ 2)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "centralized",
            grammar: "centralized",
            params: "none",
            summary: "header-free coding under central control, Θ(n) (Cor 2.6)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "patch-indexed",
            grammar: "patch-indexed",
            params: "none (uses the cell's T and b; charged-rounds model)",
            summary: "T-stable share-pass-share patch dissemination (§8.3, Thm 2.4)",
            termination: TOKENS,
        },
        SpecInfo {
            name: "quorum-watermark",
            grammar: "quorum-watermark(f=F[,rounds=R])",
            params: "F = fault bound (needs n ≥ 5f+1); R = max_round⁺ target (default 8)",
            summary: "latest-round-per-peer gossip to the f+1 watermark (FaB sketch)",
            termination: "quorum-threshold",
        },
        SpecInfo {
            name: "quorum-decide",
            grammar: "quorum-decide(f=F,q=Q)",
            params: "F = fault bound (needs n ≥ 5f+1); Q = decision round (4f+1 quorum)",
            summary: "consensus gossip: decide when a 4f+1 quorum prevotes round ≥ Q",
            termination: "quorum-threshold",
        },
    ]
}

/// The comma-separated list of valid spec grammars, for error messages.
fn valid_names() -> String {
    registry()
        .iter()
        .map(|i| i.grammar)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a `key=value` argument, accepting an optional `n` suffix on the
/// value (`gather=2n` ≡ `gather=2`: the multipliers are "per n" already).
fn keyed_usize<'a>(arg: &'a str, spec: &str) -> Result<(&'a str, usize), String> {
    let (key, raw) = arg
        .split_once('=')
        .ok_or(format!("expected key=value, got {arg:?} in {spec:?}"))?;
    let digits = raw.trim().strip_suffix('n').unwrap_or(raw.trim());
    let v = digits
        .parse::<usize>()
        .map_err(|_| format!("bad value {raw:?} for {} in {spec:?}", key.trim()))?;
    Ok((key.trim(), v))
}

impl ProtocolSpec {
    /// The canonical spec string (parses back via [`ProtocolSpec::parse`]
    /// to an equal value). Configured variants print every parameter;
    /// default-configured variants print the bare name.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Parses a protocol spec; see the [module docs](self) for the
    /// grammar. Unknown names enumerate the registry.
    pub fn parse(s: &str) -> Result<ProtocolSpec, String> {
        let s = s.trim();
        let (head, args) = match s.find('(') {
            None => (s, Vec::new()),
            Some(open) => {
                if !s.ends_with(')') {
                    return Err(format!("protocol spec {s:?} is missing its closing paren"));
                }
                (s[..open].trim(), split_args(&s[open + 1..s.len() - 1]))
            }
        };
        let no_args = |spec: ProtocolSpec| -> Result<ProtocolSpec, String> {
            if args.is_empty() {
                Ok(spec)
            } else {
                Err(format!("{head} takes no arguments, got {s:?}"))
            }
        };
        match head {
            "token-forwarding" => no_args(ProtocolSpec::TokenForwarding),
            "naive-coded" => no_args(ProtocolSpec::NaiveCoded),
            "indexed-broadcast" => no_args(ProtocolSpec::IndexedBroadcast),
            "centralized" => no_args(ProtocolSpec::Centralized),
            "patch-indexed" => no_args(ProtocolSpec::PatchIndexed),
            "pipelined-forwarding" => match args.as_slice() {
                [] => Ok(ProtocolSpec::PipelinedForwarding { t: None }),
                [one] => {
                    let t = one
                        .parse::<usize>()
                        .map_err(|_| format!("bad T {one:?} in {s:?}"))?;
                    if t == 0 {
                        return Err(format!("T must be ≥ 1 in {s:?}"));
                    }
                    Ok(ProtocolSpec::PipelinedForwarding { t: Some(t) })
                }
                _ => Err(format!("{head} takes at most one argument, got {s:?}")),
            },
            "greedy-forward" => {
                let mut cfg = GreedyConfig::default();
                for arg in &args {
                    match keyed_usize(arg, s)? {
                        ("gather", v) if v > 0 => cfg.gather_mult = v,
                        ("bcast", v) if v > 0 => cfg.broadcast_mult = v,
                        (k @ ("gather" | "bcast"), _) => {
                            return Err(format!("{k} must be ≥ 1 in {s:?}"))
                        }
                        (k, _) => {
                            return Err(format!(
                                "unknown {head} parameter {k:?} in {s:?} (valid: gather, bcast)"
                            ))
                        }
                    }
                }
                Ok(ProtocolSpec::GreedyForward { cfg })
            }
            "priority-forward" => {
                let mut cfg = PriorityConfig::default();
                for arg in &args {
                    match keyed_usize(arg, s)? {
                        ("warmup", v) if v > 0 => cfg.warmup_mult = v,
                        ("bcast", v) if v > 0 => cfg.broadcast_mult = v,
                        (k @ ("warmup" | "bcast"), _) => {
                            return Err(format!("{k} must be ≥ 1 in {s:?}"))
                        }
                        (k, _) => {
                            return Err(format!(
                                "unknown {head} parameter {k:?} in {s:?} (valid: warmup, bcast)"
                            ))
                        }
                    }
                }
                Ok(ProtocolSpec::PriorityForward { cfg })
            }
            "random-forward" => match args.as_slice() {
                [] => Ok(ProtocolSpec::RandomForward { rounds: None }),
                [one] => {
                    let (key, raw) = one
                        .split_once('=')
                        .ok_or(format!("expected rounds=auto|R in {s:?}"))?;
                    if key.trim() != "rounds" {
                        return Err(format!(
                            "unknown {head} parameter {:?} in {s:?} (valid: rounds)",
                            key.trim()
                        ));
                    }
                    match raw.trim() {
                        "auto" => Ok(ProtocolSpec::RandomForward { rounds: None }),
                        r => {
                            let rounds = r
                                .parse::<usize>()
                                .map_err(|_| format!("bad rounds {r:?} in {s:?}"))?;
                            if rounds == 0 {
                                return Err(format!("rounds must be ≥ 1 in {s:?}"));
                            }
                            Ok(ProtocolSpec::RandomForward {
                                rounds: Some(rounds),
                            })
                        }
                    }
                }
                _ => Err(format!("{head} takes at most one argument, got {s:?}")),
            },
            "field-broadcast" => {
                let [field_raw, rest @ ..] = args.as_slice() else {
                    return Err(format!(
                        "field-broadcast needs a field argument \
                         (gf2|gf256|gf257|m61), got {s:?}"
                    ));
                };
                let field = FieldKind::parse(field_raw)?;
                let det = match rest {
                    [] => None,
                    [one] => {
                        let (key, raw) = one
                            .split_once('=')
                            .ok_or(format!("expected det=SEED in {s:?}"))?;
                        if key.trim() != "det" {
                            return Err(format!(
                                "unknown {head} parameter {:?} in {s:?} (valid: det)",
                                key.trim()
                            ));
                        }
                        Some(
                            raw.trim()
                                .parse::<u64>()
                                .map_err(|_| format!("bad det seed {raw:?} in {s:?}"))?,
                        )
                    }
                    _ => return Err(format!("{head} takes at most two arguments, got {s:?}")),
                };
                Ok(ProtocolSpec::FieldBroadcast { field, det })
            }
            "quorum-watermark" => {
                let mut f = None;
                let mut rounds = DEFAULT_WATERMARK_ROUNDS;
                for arg in &args {
                    match keyed_usize(arg, s)? {
                        ("f", v) if v > 0 => f = Some(v),
                        ("rounds", v) if v > 0 => rounds = v,
                        (k @ ("f" | "rounds"), _) => {
                            return Err(format!("{k} must be ≥ 1 in {s:?}"))
                        }
                        (k, _) => {
                            return Err(format!(
                                "unknown {head} parameter {k:?} in {s:?} (valid: f, rounds)"
                            ))
                        }
                    }
                }
                let f = f.ok_or(format!(
                    "{head} needs its fault bound (e.g. {head}(f=1)), got {s:?}"
                ))?;
                Ok(ProtocolSpec::QuorumWatermark { f, rounds })
            }
            "quorum-decide" => {
                let (mut f, mut q) = (None, None);
                for arg in &args {
                    match keyed_usize(arg, s)? {
                        ("f", v) if v > 0 => f = Some(v),
                        ("q", v) if v > 0 => q = Some(v),
                        (k @ ("f" | "q"), _) => return Err(format!("{k} must be ≥ 1 in {s:?}")),
                        (k, _) => {
                            return Err(format!(
                                "unknown {head} parameter {k:?} in {s:?} (valid: f, q)"
                            ))
                        }
                    }
                }
                match (f, q) {
                    (Some(f), Some(q)) => Ok(ProtocolSpec::QuorumDecide { f, q }),
                    _ => Err(format!(
                        "{head} needs both its fault bound and decision round \
                         (e.g. {head}(f=1,q=4)), got {s:?}"
                    )),
                }
            }
            other => Err(format!(
                "unknown protocol {other:?}; valid protocols: {}",
                valid_names()
            )),
        }
    }

    /// Does this spec need reliable delivery? The flood-staged families
    /// (`greedy-forward`, `priority-forward`, `naive-coded`) check phase
    /// invariants that hold only when every broadcast reaches every
    /// neighbor, so they can panic mid-run under radio or lossy channels.
    pub fn requires_reliable_delivery(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::GreedyForward { .. }
                | ProtocolSpec::PriorityForward { .. }
                | ProtocolSpec::NaiveCoded
        )
    }

    /// Does this spec run on the round-synchronous simulator? The one
    /// exception is `patch-indexed`, whose §8 charged-rounds model is
    /// driven per stability window (see [`crate::runner::run_spec_kernel`]).
    pub fn is_simulated(&self) -> bool {
        !matches!(self, ProtocolSpec::PatchIndexed)
    }

    /// The quorum configuration of a quorum-family spec; `None` for every
    /// dissemination family.
    pub fn quorum_config(&self) -> Option<QuorumConfig> {
        match self {
            ProtocolSpec::QuorumWatermark { f, rounds } => Some(QuorumConfig {
                f: *f,
                goal: QuorumGoal::Watermark {
                    rounds: *rounds as u32,
                },
            }),
            ProtocolSpec::QuorumDecide { f, q } => Some(QuorumConfig {
                f: *f,
                goal: QuorumGoal::Decide { q: *q as u32 },
            }),
            _ => None,
        }
    }

    /// Instance-size validation a parse alone cannot do: the quorum
    /// families require `n ≥ 5f+1` (quorum intersection). Dissemination
    /// families accept any `n`. Campaign builders call this per
    /// (protocol, n) grid point so misconfigured sweeps fail at parse
    /// time, not inside a worker.
    pub fn validate_for_n(&self, n: usize) -> Result<(), String> {
        match self.quorum_config() {
            Some(cfg) => cfg.validate_for(n),
            None => Ok(()),
        }
    }

    /// The termination predicate "completed" verifies for this family:
    /// token completion for every dissemination family, the quorum
    /// threshold for the quorum families.
    pub fn termination(&self) -> &'static dyn TerminationPredicate {
        match self {
            ProtocolSpec::QuorumWatermark { .. } | ProtocolSpec::QuorumDecide { .. } => {
                &QUORUM_DECISION
            }
            _ => &TOKEN_COMPLETION,
        }
    }

    /// Builds the protocol over `inst` as an erased simulator protocol.
    /// `t` is the cell's stability interval, adopted by
    /// `pipelined-forwarding` when the spec names no explicit T.
    ///
    /// # Panics
    /// Panics for `patch-indexed` (not a simulator protocol — route runs
    /// through [`crate::runner::run_spec_kernel`], which handles it).
    pub fn build(&self, inst: &Instance, t: usize) -> Box<dyn ErasedProtocol> {
        match self {
            ProtocolSpec::TokenForwarding => Box::new(Erased::new(TokenForwarding::baseline(inst))),
            ProtocolSpec::PipelinedForwarding { t: spec_t } => {
                let tt = spec_t.unwrap_or(t).max(1);
                // `pipelined` returns the baseline schedule below T = 4,
                // exactly as the engine's old PipelinedForwarding arm did.
                Box::new(Erased::new(TokenForwarding::pipelined(inst, tt)))
            }
            ProtocolSpec::GreedyForward { cfg } => {
                Box::new(Erased::new(GreedyForward::with_config(inst, *cfg)))
            }
            ProtocolSpec::PriorityForward { cfg } => {
                Box::new(Erased::new(PriorityForward::with_config(inst, *cfg)))
            }
            ProtocolSpec::RandomForward { rounds } => {
                let r = rounds.unwrap_or(2 * inst.params.n).max(1);
                Box::new(Erased::new(RandomForward::new(inst, r)))
            }
            ProtocolSpec::NaiveCoded => Box::new(Erased::new(NaiveCoded::new(inst))),
            ProtocolSpec::IndexedBroadcast => Box::new(Erased::new(IndexedBroadcast::new(inst))),
            ProtocolSpec::FieldBroadcast { field, det } => match (field, det) {
                (FieldKind::Gf2, None) => Box::new(Erased::new(FieldBroadcast::<Gf2>::new(inst))),
                (FieldKind::Gf2, Some(s)) => {
                    Box::new(Erased::new(FieldBroadcast::<Gf2>::deterministic(inst, *s)))
                }
                (FieldKind::Gf256, None) => {
                    Box::new(Erased::new(FieldBroadcast::<Gf256>::new(inst)))
                }
                (FieldKind::Gf256, Some(s)) => Box::new(Erased::new(
                    FieldBroadcast::<Gf256>::deterministic(inst, *s),
                )),
                (FieldKind::Gf257, None) => {
                    Box::new(Erased::new(FieldBroadcast::<Gf257>::new(inst)))
                }
                (FieldKind::Gf257, Some(s)) => Box::new(Erased::new(
                    FieldBroadcast::<Gf257>::deterministic(inst, *s),
                )),
                (FieldKind::Mersenne61, None) => {
                    Box::new(Erased::new(FieldBroadcast::<Mersenne61>::new(inst)))
                }
                (FieldKind::Mersenne61, Some(s)) => {
                    Box::new(Erased::new(FieldBroadcast::<Mersenne61>::deterministic(
                        inst, *s,
                    )))
                }
            },
            ProtocolSpec::Centralized => Box::new(Erased::new(Centralized::new(inst))),
            ProtocolSpec::PatchIndexed => {
                panic!(
                    "patch-indexed is a charged-rounds model; run it via runner::run_spec_kernel"
                )
            }
            ProtocolSpec::QuorumWatermark { .. } | ProtocolSpec::QuorumDecide { .. } => {
                let cfg = self.quorum_config().expect("quorum spec has a config");
                Box::new(Erased::new(QuorumProtocol::new(
                    inst.params.n,
                    inst.params.k,
                    cfg,
                )))
            }
        }
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSpec::TokenForwarding => write!(f, "token-forwarding"),
            ProtocolSpec::PipelinedForwarding { t: None } => write!(f, "pipelined-forwarding"),
            ProtocolSpec::PipelinedForwarding { t: Some(t) } => {
                write!(f, "pipelined-forwarding({t})")
            }
            ProtocolSpec::GreedyForward { cfg } => {
                if *cfg == GreedyConfig::default() {
                    write!(f, "greedy-forward")
                } else {
                    write!(
                        f,
                        "greedy-forward(gather={},bcast={})",
                        cfg.gather_mult, cfg.broadcast_mult
                    )
                }
            }
            ProtocolSpec::PriorityForward { cfg } => {
                if *cfg == PriorityConfig::default() {
                    write!(f, "priority-forward")
                } else {
                    write!(
                        f,
                        "priority-forward(warmup={},bcast={})",
                        cfg.warmup_mult, cfg.broadcast_mult
                    )
                }
            }
            ProtocolSpec::RandomForward { rounds: None } => write!(f, "random-forward"),
            ProtocolSpec::RandomForward { rounds: Some(r) } => {
                write!(f, "random-forward(rounds={r})")
            }
            ProtocolSpec::NaiveCoded => write!(f, "naive-coded"),
            ProtocolSpec::IndexedBroadcast => write!(f, "indexed-broadcast"),
            ProtocolSpec::FieldBroadcast { field, det: None } => {
                write!(f, "field-broadcast({})", field.name())
            }
            ProtocolSpec::FieldBroadcast {
                field,
                det: Some(s),
            } => write!(f, "field-broadcast({},det={s})", field.name()),
            ProtocolSpec::Centralized => write!(f, "centralized"),
            ProtocolSpec::PatchIndexed => write!(f, "patch-indexed"),
            ProtocolSpec::QuorumWatermark { f: fb, rounds } => {
                if *rounds == DEFAULT_WATERMARK_ROUNDS {
                    write!(f, "quorum-watermark(f={fb})")
                } else {
                    write!(f, "quorum-watermark(f={fb},rounds={rounds})")
                }
            }
            ProtocolSpec::QuorumDecide { f: fb, q } => write!(f, "quorum-decide(f={fb},q={q})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Placement};
    use dyncode_dynet::adversaries::ShuffledPathAdversary;
    use dyncode_dynet::simulator::{run, SimConfig};

    #[test]
    fn canonical_strings_round_trip() {
        for spec in [
            "token-forwarding",
            "pipelined-forwarding",
            "pipelined-forwarding(8)",
            "greedy-forward",
            "greedy-forward(gather=2,bcast=3)",
            "priority-forward",
            "priority-forward(warmup=3,bcast=4)",
            "random-forward",
            "random-forward(rounds=96)",
            "naive-coded",
            "indexed-broadcast",
            "field-broadcast(gf2)",
            "field-broadcast(gf256)",
            "field-broadcast(gf257)",
            "field-broadcast(m61)",
            "field-broadcast(m61,det=7)",
            "centralized",
            "patch-indexed",
            "quorum-watermark(f=1)",
            "quorum-watermark(f=2,rounds=16)",
            "quorum-decide(f=1,q=4)",
        ] {
            let v = ProtocolSpec::parse(spec).expect(spec);
            assert_eq!(v.to_string(), spec, "canonical form is stable");
            assert_eq!(ProtocolSpec::parse(&v.to_string()).unwrap(), v, "{spec}");
        }
    }

    #[test]
    fn sugar_forms_normalize() {
        // `2n`-suffixed multipliers and `rounds=auto` are accepted sugar.
        assert_eq!(
            ProtocolSpec::parse("greedy-forward(gather=2n)").unwrap(),
            ProtocolSpec::parse("greedy-forward(gather=2)").unwrap()
        );
        assert_eq!(
            ProtocolSpec::parse("random-forward(rounds=auto)").unwrap(),
            ProtocolSpec::RandomForward { rounds: None }
        );
        assert_eq!(
            ProtocolSpec::parse("  field-broadcast( m61 , det=7 )  ").unwrap(),
            ProtocolSpec::parse("field-broadcast(m61,det=7)").unwrap()
        );
        // Defaults spelled out collapse to the bare canonical name.
        let spelled = ProtocolSpec::parse("greedy-forward(gather=1,bcast=2)").unwrap();
        assert_eq!(spelled.to_string(), "greedy-forward");
        // … including the quorum watermark default (rounds = 8).
        let spelled = ProtocolSpec::parse("quorum-watermark(rounds=8,f=3)").unwrap();
        assert_eq!(spelled.to_string(), "quorum-watermark(f=3)");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "mystery",                        // unknown bare name
            "mystery(1,2)",                   // unknown head
            "token-forwarding(1)",            // arity
            "pipelined-forwarding(0)",        // T = 0
            "pipelined-forwarding(a)",        // not a number
            "pipelined-forwarding(1,2)",      // too many args
            "greedy-forward(cap=2)",          // unknown key
            "greedy-forward(gather=0)",       // zero multiplier
            "greedy-forward(gather)",         // missing =
            "random-forward(rounds=0)",       // zero rounds
            "random-forward(laps=3)",         // unknown key
            "field-broadcast",                // missing field
            "field-broadcast(gf9)",           // unknown field
            "field-broadcast(m61,det=x)",     // bad seed
            "field-broadcast(m61,mode=1)",    // unknown key
            "field-broadcast(gf2,det=1,0)",   // too many args
            "greedy-forward(gather=2",        // unbalanced paren
            "patch-indexed(3)",               // arity
            "quorum-watermark",               // missing f
            "quorum-watermark(rounds=8)",     // still missing f
            "quorum-watermark(f=0)",          // zero fault bound
            "quorum-watermark(f=1,rounds=0)", // zero target
            "quorum-watermark(f=1,laps=2)",   // unknown key
            "quorum-decide(f=1)",             // missing q
            "quorum-decide(q=4)",             // missing f
            "quorum-decide(f=1,q=0)",         // zero decision round
            "quorum-decide(f=1,q=4,x=2)",     // unknown key
        ] {
            assert!(ProtocolSpec::parse(bad).is_err(), "{bad} should fail");
        }
        let err = ProtocolSpec::parse("mystery").unwrap_err();
        assert!(
            err.contains("valid protocols") && err.contains("token-forwarding"),
            "unknown names must enumerate the registry: {err}"
        );
    }

    #[test]
    fn registry_names_parse_and_cover_the_enum() {
        for info in registry() {
            // Every bare registry name parses, except the families whose
            // required arguments have no default.
            let probe = match info.name {
                "field-broadcast" => "field-broadcast(gf256)".to_string(),
                "quorum-watermark" => "quorum-watermark(f=1)".to_string(),
                "quorum-decide" => "quorum-decide(f=1,q=4)".to_string(),
                name => name.to_string(),
            };
            let spec = ProtocolSpec::parse(&probe).expect(info.name);
            assert!(spec.to_string().starts_with(info.name), "{probe}");
            assert_eq!(
                spec.termination().name(),
                info.termination,
                "{probe}: the registry row and the erased predicate disagree"
            );
        }
        assert_eq!(registry().len(), 12);
    }

    #[test]
    fn quorum_specs_validate_the_instance_size() {
        let spec = ProtocolSpec::parse("quorum-watermark(f=2)").unwrap();
        assert!(spec.validate_for_n(11).is_ok());
        let err = spec.validate_for_n(10).unwrap_err();
        assert!(err.contains("n ≥ 5f+1"), "{err}");
        // Dissemination families accept any n.
        assert!(ProtocolSpec::TokenForwarding.validate_for_n(1).is_ok());
    }

    #[test]
    fn built_protocols_run_on_the_erased_surface() {
        let p = Params::new(10, 10, 5, 64);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 3);
        for spec in [
            "token-forwarding",
            "greedy-forward",
            "indexed-broadcast",
            "field-broadcast(gf256)",
            "centralized",
            "quorum-watermark(f=1)",
            "quorum-decide(f=1,q=3)",
        ] {
            let spec = ProtocolSpec::parse(spec).unwrap();
            assert!(spec.is_simulated());
            let mut proto = spec.build(&inst, 1);
            let mut adv = ShuffledPathAdversary;
            let r = run(&mut proto, &mut adv, &SimConfig::with_max_rounds(20_000), 5);
            assert!(r.completed, "{spec} failed to complete");
        }
        assert!(!ProtocolSpec::PatchIndexed.is_simulated());
    }

    #[test]
    #[should_panic(expected = "charged-rounds")]
    fn patch_indexed_build_is_rejected() {
        let p = Params::new(8, 8, 4, 8);
        let inst = Instance::generate(p, Placement::OneTokenPerNode, 1);
        let _ = ProtocolSpec::PatchIndexed.build(&inst, 4);
    }
}
