//! E3 (Theorem 2.4) and E12 (Lemma 8.1): the T-stable patch algorithms.

use super::{d_for, meta_nkdb, standard_instance};
use crate::ctx::ExpCtx;
use crate::table::{f, Table};
use dyncode_core::protocols::patch::{patch_dissemination, patch_indexed_broadcast, PatchParams};
use dyncode_core::spec::ProtocolSpec;
use dyncode_core::theory;
use dyncode_dynet::adversaries::ShuffledPathAdversary;
use dyncode_dynet::adversary::TStable;
use dyncode_gf::Gf2Vec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E3 — Theorem 2.4: T-stability buys coding ≈ T² (three-term minimum)
/// while forwarding gets exactly T.
pub fn e3(ctx: &mut ExpCtx) {
    println!("\n## E3 — Theorem 2.4: T-stability: coding T² vs forwarding T");
    let n = if ctx.quick { 48 } else { 96 };
    let d = d_for(n);
    let b = d;
    let seeds: Vec<u64> = if ctx.quick { vec![1] } else { vec![1, 2] };
    let ts: &[usize] = if ctx.quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut t = Table::new(
        format!("E3: T sweep (n = k = {n}, d = b = {d})"),
        &[
            "T",
            "forwarding",
            "fwd speedup",
            "patch coding",
            "coding speedup",
            "Thm 2.4 bound",
        ],
    );
    let (mut fwd_base, mut nc_base) = (0.0f64, 0.0f64);
    let (mut ts_f, mut fwd_sp, mut nc_sp) = (Vec::new(), Vec::new(), Vec::new());
    for &tt in ts {
        let inst = standard_instance(n, d, b, 31);
        let mut meta = meta_nkdb(&inst.params);
        meta.push(("t", tt.to_string()));
        // Below T = 4 the pipelined schedule is the baseline one.
        let spec = ProtocolSpec::PipelinedForwarding { t: Some(tt) };
        let mf = ctx.mean_rounds_spec(
            &format!("E3 fwd T={tt}"),
            &meta,
            &seeds,
            20 * n * n,
            &spec,
            &inst,
            || Box::new(TStable::new(ShuffledPathAdversary, tt)),
        );
        // Patch coding runs per seed as parallel engine cells (the patch
        // runner has its own charged-rounds accounting, outside the plain
        // Protocol interface).
        let (inst_ref, seeds_ref) = (&inst, &seeds);
        let charged: Vec<usize> = ctx.map(
            seeds_ref
                .iter()
                .map(|&s| {
                    move || {
                        let pp = PatchParams::new(n, tt.max(1), b);
                        let mut adv = ShuffledPathAdversary;
                        let r = patch_dissemination(inst_ref, pp, &mut adv, s, 100_000_000);
                        assert!(r.completed, "patch dissemination failed at T={tt}");
                        r.charged_rounds
                    }
                })
                .collect(),
        );
        let mc = charged.iter().sum::<usize>() as f64 / seeds.len() as f64;
        ctx.scalar(format!("E3 patch coding rounds T={tt}"), mc);
        if tt == 1 {
            fwd_base = mf;
            nc_base = mc;
        }
        if tt > 1 {
            ts_f.push(tt as f64);
            fwd_sp.push(fwd_base / mf);
            nc_sp.push(nc_base / mc);
        }
        t.row(vec![
            tt.to_string(),
            f(mf),
            f(fwd_base / mf),
            f(mc),
            f(nc_base / mc),
            f(theory::nc_tstable_bound(n, n, d, b, tt)),
        ]);
    }
    ctx.table(&t);
    if ts_f.len() >= 2 {
        let fwd_slope = theory::loglog_slope(&ts_f, &fwd_sp);
        let nc_slope = theory::loglog_slope(&ts_f, &nc_sp);
        println!(
            "\nlog-log speedup slopes vs T: forwarding {} (Thm 2.1 predicts ≤ 1), \
             coding {} (Thm 2.4 predicts up to 2 until the additive nT·polylog term bites)",
            f(fwd_slope),
            f(nc_slope),
        );
        ctx.scalar("E3 fwd speedup slope vs T", fwd_slope);
        ctx.scalar("E3 coding speedup slope vs T", nc_slope);
    }
}

/// E12 — Lemma 8.1: the patched share-pass-share broadcast distributes bT
/// blocks of bT bits in O((n + bT²) log n) charged rounds.
pub fn e12(ctx: &mut ExpCtx) {
    println!("\n## E12 — Lemma 8.1: patched broadcast of bT blocks of bT bits");
    let b = 8usize;
    let ns: &[usize] = if ctx.quick { &[32, 64] } else { &[32, 64, 128] };
    let ts: &[usize] = if ctx.quick { &[2, 4] } else { &[2, 4, 8] };
    let mut t = Table::new(
        format!("E12: (n, T) sweep at b = {b}, all blocks seeded at node 0"),
        &[
            "n",
            "T",
            "blocks (bT)",
            "charged rounds",
            "(n + bT²)·lg n",
            "ratio",
        ],
    );
    let cases: Vec<(usize, usize)> = ns
        .iter()
        .flat_map(|&n| ts.iter().map(move |&tt| (n, tt)))
        .collect();
    // One engine cell per (n, T) point; sources drawn from a per-cell
    // seed so cells stay independent under parallel execution.
    let rows = ctx.map(
        cases
            .iter()
            .map(|&(n, tt)| {
                move || {
                    let nb = b * tt;
                    let bits = b * tt;
                    let mut rng = StdRng::seed_from_u64(1200 + (n * 100 + tt) as u64);
                    let sources: Vec<(usize, usize, Gf2Vec)> = (0..nb)
                        .map(|i| (0usize, i, Gf2Vec::random(bits, &mut rng)))
                        .collect();
                    let pp = PatchParams::new(n, tt, b);
                    let mut adv = ShuffledPathAdversary;
                    let (res, decoded) =
                        patch_indexed_broadcast(pp, nb, bits, &sources, &mut adv, 77, 100_000_000);
                    assert!(res.completed, "E12 run failed at n={n}, T={tt}");
                    assert_eq!(decoded.unwrap().len(), nb);
                    res.charged_rounds as f64
                }
            })
            .collect(),
    );
    let (mut meas, mut pred) = (Vec::new(), Vec::new());
    for (&(n, tt), &m) in cases.iter().zip(&rows) {
        let p = theory::patch_broadcast_bound(n, b, tt);
        t.row(vec![
            n.to_string(),
            tt.to_string(),
            (b * tt).to_string(),
            f(m),
            f(p),
            f(m / p),
        ]);
        ctx.scalar(format!("E12 charged rounds n={n} T={tt}"), m);
        meas.push(m);
        pred.push(p);
    }
    ctx.table(&t);
    ctx.fit("E12", &meas, &pred);
    println!(
        "(payload delivered grows as (bT)² per run while charged rounds track\n\
         (n + bT²)·log n — the per-round information rate rises linearly with T)"
    );
}
