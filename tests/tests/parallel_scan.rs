//! Pool-invisibility and ingest-soundness locksteps for the sharded
//! within-arrival block scans, the sharded freeze walk, and the ball
//! ingest behind the block layout.
//!
//! The worker pool behind the per-arrival t3/t4 scans is an *execution*
//! choice, never an *algorithmic* one: the shard partition is a pure
//! function of the block count (`SCAN_SHARD_BLOCKS`), each shard reports
//! an achieved lexicographic `(value, location)` best, and the merge
//! re-imposes the sequential tie order. The same pool and partition shard
//! the freeze walk (`OpeningTargetIndex::freeze_reinvest`) at every size,
//! each shard owning its blocks' bid slots and bounds outright. The
//! Euclidean cells take layout block passes and screen the walk's
//! distances; the `zipf-services-large` cell (and the graph and dense
//! families the proptest draws) read stored rows, so they also check that
//! the pool cannot change what the walk reinvests from a full row. So the
//! engine must be bit-for-bit indistinguishable — per-arrival outcomes,
//! dual sums, total costs, and even the skip/scan statistics — at 1, 2, 7,
//! or 16 threads, and under any blocks-per-shard granularity. These tests
//! pin that down across the workload catalog, alongside the structural
//! invariants both ball-ingest paths (kd nearest-neighbor balls for
//! metrics with coordinates, windowed balls for the rest) must satisfy:
//! the block partition is a permutation, each block's covering radius is
//! sound, and the recorded min-id matches the members.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::OpeningTargetIndex;
use omfl_core::pd::PdOmflp;
use omfl_workload::catalog::{by_name, registry, CatalogProfile};
use omfl_workload::Scenario;
use proptest::prelude::*;

/// Runs a configured engine against the stock sequential engine over one
/// scenario; everything observable must agree bit for bit. Returns the
/// configured engine's (skipped, scanned) statistics.
fn assert_engine_lockstep(
    sc: &Scenario,
    mut tuned: PdOmflp<'_>,
    label: &str,
) -> Option<(u64, u64)> {
    let inst = sc.instance();
    let mut reference = PdOmflp::new(inst);
    for (step, r) in sc.requests.iter().enumerate() {
        let a = tuned.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = reference
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
    }
    assert_eq!(
        tuned.dual_sum().to_bits(),
        reference.dual_sum().to_bits(),
        "{label}: dual sums diverged"
    );
    assert_eq!(
        tuned.solution().total_cost().to_bits(),
        reference.solution().total_cost().to_bits(),
        "{label}: costs diverged"
    );
    tuned.opening_target_stats()
}

#[test]
fn sharded_scans_are_bit_identical_at_every_thread_count() {
    // The large Euclidean family spans 80+ blocks, so small shard sizes
    // genuinely fan each arrival out over many shards. Every (threads,
    // shard_blocks) cell must match the stock engine exactly — and, per
    // shard size, report identical statistics at every thread count (the
    // pool cannot even change what was *attempted*).
    let profile = CatalogProfile {
        points: 40, // × 32 scale → 1280 points
        services: 8,
        requests: 100,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile, 7)
        .expect("euclid-grid-large");
    let inst = sc.instance();
    for shard_blocks in [1usize, 3, 128] {
        let mut stats_per_threads = Vec::new();
        for threads in [1usize, 2, 7, 16] {
            let mut tuned = PdOmflp::new(inst);
            tuned.configure_parallel_scans(threads, shard_blocks);
            let label = format!("euclid-grid-large t={threads} sb={shard_blocks}");
            let stats = assert_engine_lockstep(&sc, tuned, &label).expect("stats");
            stats_per_threads.push((threads, stats));
        }
        let (_, first) = stats_per_threads[0];
        for (threads, stats) in &stats_per_threads {
            assert_eq!(
                *stats, first,
                "skip/scan stats changed with thread count {threads} at \
                 shard_blocks={shard_blocks} — the pool leaked into the scan"
            );
        }
    }
}

#[test]
fn sharded_scans_lockstep_on_the_scattered_families() {
    // The cold-query adversary scatters ids against spatial structure, and
    // zipf-services hammers a hotspot: both push different shard merge
    // orders than the grid family. One aggressive cell each.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 80,
    };
    for name in ["cold-scatter-large", "zipf-services-large"] {
        let sc = by_name(name).unwrap().build(&profile, 13).expect(name);
        let mut tuned = PdOmflp::new(sc.instance());
        tuned.configure_parallel_scans(7, 2);
        assert_engine_lockstep(&sc, tuned, name);
    }
}

/// Structural soundness of one block layout: partition is a permutation of
/// the point set, the medoid is a member, the covering radius dominates
/// every member distance, and min_id is the true member minimum.
fn assert_ball_invariants(sc: &Scenario, idx: &OpeningTargetIndex, label: &str) {
    let inst = sc.instance();
    let m = inst.num_points();
    let partition = idx.block_partition();
    let summaries = idx.block_summaries();
    assert_eq!(partition.len(), summaries.len(), "{label}: block count");
    let mut seen = vec![false; m];
    for (bi, (members, &(rep, radius, min_id))) in partition.iter().zip(&summaries).enumerate() {
        assert!(!members.is_empty(), "{label}: empty block {bi}");
        assert!(
            members.contains(&rep),
            "{label}: block {bi} medoid {rep} is not a member"
        );
        let mut max_d: f64 = 0.0;
        let mut min_member = u32::MAX;
        for &p in members {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "{label}: point {p} appears in two blocks"
            );
            max_d = max_d.max(inst.distance(omfl_metric::PointId(rep), omfl_metric::PointId(p)));
            min_member = min_member.min(p);
        }
        assert!(
            radius >= max_d,
            "{label}: block {bi} radius {radius} < member distance {max_d}"
        );
        assert_eq!(min_id, min_member, "{label}: block {bi} min_id");
    }
    assert!(
        seen.iter().all(|&s| s),
        "{label}: partition is not a permutation"
    );
}

#[test]
fn kd_and_windowed_ball_ingest_both_satisfy_the_block_invariants() {
    // Both ingest paths — kd nearest-neighbor balls for metrics with a
    // coordinate embedding, windowed balls over the coherent order for the
    // rest — must produce sound layouts on every family that opts into
    // spatial structure. (Families without a coherent order produce the
    // identity layout, which is trivially sound and checked too.) The
    // catalog must keep reaching both paths.
    let profile = CatalogProfile {
        points: 24,
        services: 4,
        requests: 10,
    };
    let (mut kd_families, mut windowed_families) = (0, 0);
    for fam in registry() {
        let sc = fam.build(&profile, 3).expect(fam.name);
        let inst = sc.instance();
        let metric = inst.metric();
        let ingest = if metric.coherent_order().is_none() {
            "identity layout"
        } else if metric.kd_coords().is_some() {
            kd_families += 1;
            "kd ingest"
        } else {
            windowed_families += 1;
            "windowed ingest"
        };
        let m = inst.num_points();
        let s = inst.num_commodities();
        let f_small = vec![1.0; m * s];
        let f_full = vec![2.0; m];
        let idx = OpeningTargetIndex::for_instance(inst, &f_small, &f_full);
        assert_ball_invariants(&sc, &idx, &format!("{} ({ingest})", fam.name));
    }
    assert!(kd_families > 0, "no catalog family reaches the kd ingest");
    assert!(
        windowed_families > 0,
        "no catalog family reaches the windowed ingest"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (family, seed, threads, shard size) cells: the tuned engine
    /// must be indistinguishable from the stock one. Thread counts beyond
    /// the machine's cores are deliberate — oversubscription is another
    /// thing that must not be observable.
    #[test]
    fn random_scan_configurations_never_change_outcomes(
        family_idx in 0usize..64,
        seed in 0u64..10_000,
        threads in 1usize..9,
        shard_blocks in 1usize..40,
        points in 4usize..18,
        services in 2u16..8,
        requests in 5usize..50,
    ) {
        let families = registry();
        let fam = families[family_idx % families.len()];
        let profile = CatalogProfile { points, services, requests };
        let sc = fam.build(&profile, seed).unwrap();
        let mut tuned = PdOmflp::new(sc.instance());
        tuned.configure_parallel_scans(threads, shard_blocks);
        let label = format!("{} t={threads} sb={shard_blocks}", fam.name);
        assert_engine_lockstep(&sc, tuned, &label);
    }
}
