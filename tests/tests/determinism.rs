//! Determinism guarantees the sweep harness and the committed canonical CSV
//! rely on: identical configs produce bit-identical `SimReport`s, and the
//! sharded sweep produces the identical table at every thread count — now
//! including adversarially skewed matrices where one cell dominates
//! wall-clock and the parallel map's one-index-at-a-time claiming spreads
//! the work.

use omfl_core::CoreError;
use omfl_sim::sweep::{aggregate, sweep, sweep_catalog};
use omfl_sim::{run_engine, Engine};
use omfl_workload::catalog::{by_name, registry, CatalogProfile, Family};
use omfl_workload::Scenario;
use std::time::{Duration, Instant};

fn profile() -> CatalogProfile {
    CatalogProfile {
        points: 10,
        services: 8,
        requests: 30,
    }
}

#[test]
fn pd_and_rand_reports_are_bit_identical_across_repeat_runs() {
    for fam in registry() {
        let sc = fam.build(&profile(), 5).expect(fam.name);
        for engine in [Engine::Pd, Engine::Rand { seed: 77 }] {
            let a = run_engine(&sc, engine).expect(fam.name);
            let b = run_engine(&sc, engine).expect(fam.name);
            // PartialEq over every field, including the f64 latency stats
            // and the full cost-over-time trace — bit-identical, not "close".
            assert_eq!(a, b, "{} on {} not reproducible", engine.name(), fam.name);
        }
    }
}

#[test]
fn rand_seed_actually_changes_the_run() {
    // Guards against a silently ignored seed, which would make the
    // determinism assertions above vacuous.
    let fam = registry().into_iter().next().unwrap();
    let sc = fam.build(&profile(), 5).unwrap();
    let a = run_engine(&sc, Engine::Rand { seed: 1 }).unwrap();
    let b = run_engine(&sc, Engine::Rand { seed: 2 }).unwrap();
    assert_ne!(
        a.cost_over_time, b.cost_over_time,
        "different RAND seeds should diverge on this workload"
    );
}

#[test]
fn sweep_cells_are_identical_across_thread_counts() {
    let families = registry();
    let engines = [Engine::Pd, Engine::Rand { seed: 9 }];
    let reference = sweep(&families, &profile(), &engines, 42, 2, 1).unwrap();
    for threads in [2, 3, 7, 64] {
        let cells = sweep(&families, &profile(), &engines, 42, 2, threads).unwrap();
        assert_eq!(cells, reference, "threads = {threads}");
    }
}

#[test]
fn aggregated_table_and_csv_are_thread_count_independent() {
    let a = sweep_catalog(&profile(), 7, 2, 1).unwrap();
    let b = sweep_catalog(&profile(), 7, 2, 6).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.render(), b.render());
    // The table covers the full (family × engine) matrix.
    assert_eq!(a.rows.len(), registry().len() * 4);
}

/// A catalog family ~100× heavier than its siblings: same generator as
/// `zipf-services`, but the profile's request count is multiplied so one
/// (family, trial) cell dominates the sweep's wall-clock.
fn heavy_family() -> Family {
    fn build(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
        let heavy = CatalogProfile {
            points: p.points,
            services: p.services,
            requests: p.requests * 100,
        };
        by_name("zipf-services")
            .expect("registry family")
            .build(&heavy, seed)
    }
    Family::new(
        "zipf-services-x100",
        "scheduler-skew adversary: one cell ~100x slower than the rest",
        build,
    )
}

#[test]
fn skewed_sweep_tables_are_bit_identical_for_1_2_7_16_threads() {
    // The heavy family goes FIRST: under the old chunk-static scheduler its
    // cells all landed in worker 0's chunk, which is exactly the layout a
    // scheduler rewrite could silently reorder. Tables must not care.
    let mut families = vec![heavy_family()];
    families.extend(registry().into_iter().take(3));
    let profile = CatalogProfile {
        points: 10,
        services: 8,
        requests: 12, // heavy cell serves 1200
    };
    let engines = [Engine::Pd, Engine::Rand { seed: 5 }];
    let reference = sweep(&families, &profile, &engines, 31, 2, 1).unwrap();
    for threads in [2, 7, 16] {
        let cells = sweep(&families, &profile, &engines, 31, 2, threads).unwrap();
        assert_eq!(cells, reference, "threads = {threads}");
    }
    let ref_table = aggregate(&reference);
    for threads in [2, 7, 16] {
        let table = aggregate(&sweep(&families, &profile, &engines, 31, 2, threads).unwrap());
        assert_eq!(table.to_csv(), ref_table.to_csv(), "threads = {threads}");
    }
}

#[test]
fn slow_cell_does_not_serialize_the_schedule() {
    // Starvation regression for the parallel map's scheduler. All four slow
    // items sit in what a chunk-static split over 8 threads would hand to
    // worker 0, so such a split serializes them: 4 × 80 ms = 320 ms on one
    // worker. The pool claims runs of max(1, remaining / (4·threads))
    // indices, and 32 items over 8 threads are at most 4·threads, so they
    // are claimed one index at a time: they spread across idle workers and
    // the whole map finishes in ≈ one slow item. Sleeps
    // (not spins) keep the assertion independent of CPU speed; the bound is
    // generous — 2.5× the ideal — to absorb CI scheduling noise while
    // staying far below the serialized 320 ms.
    let items: Vec<u64> = (0..32).collect();
    let t0 = Instant::now();
    let out = omfl_par::parallel_map(&items, 8, |_, &x| {
        std::thread::sleep(Duration::from_millis(if x < 4 { 80 } else { 2 }));
        x
    });
    let elapsed = t0.elapsed();
    assert_eq!(out, items, "results must stay in input order");
    assert!(
        elapsed < Duration::from_millis(200),
        "slow cells serialized the sweep: {elapsed:?} (per-index claiming \
         should finish in ~80-160 ms; chunk-static takes ≥ 320 ms)"
    );
}

#[test]
fn sweep_cells_aggregate_consistently() {
    let families = registry();
    let engines = [Engine::Pd];
    let cells = sweep(&families, &profile(), &engines, 3, 3, 2).unwrap();
    let table = aggregate(&cells);
    for row in &table.rows {
        let group: Vec<f64> = cells
            .iter()
            .filter(|c| c.family == row.family && c.engine == row.engine)
            .map(|c| c.report.total_cost)
            .collect();
        assert_eq!(group.len(), row.cost.n);
        let mean = group.iter().sum::<f64>() / group.len() as f64;
        assert!((mean - row.cost.mean).abs() < 1e-12 * (1.0 + mean));
    }
}
