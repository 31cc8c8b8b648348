//! The distance-row contract and the PD engine's use of it.
//!
//! Every `Metric` impl must fill rows bit for bit like its per-call
//! `distance`, a metric that stores its closure lends its rows through
//! `Metric::row` with the same bits, and a metric that screens
//! (`Metric::screen_distances`) brackets every distance it screens. The
//! wrappers the program routes metrics through (`Box<dyn Metric>` in every
//! `Instance`, `SharedMetric` in every scenario) must forward all three: a
//! wrapper that drops `row` would silently send the engine back to copying
//! the closure into its row cache, and one that drops screening would send
//! the partial-row freeze walk to an exact distance call per point. No
//! outcome test can see either. The second test pins the row wiring
//! through the cache counters.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::heavy::SharedMetric;
use omfl_core::pd::PdOmflp;
use omfl_metric::dense::DenseMetric;
use omfl_metric::euclidean::{EuclideanMetric, Norm};
use omfl_metric::graph::GraphMetric;
use omfl_metric::line::LineMetric;
use omfl_metric::tree::TreeMetric;
use omfl_metric::{Metric, PointId};
use omfl_workload::catalog::{by_name, CatalogProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const POINTS: usize = 48;

/// A coordinate or weight at a random scale from `1e-9` to `1e8`, so rows
/// mix tiny gaps with huge ones.
fn scaled(rng: &mut StdRng) -> f64 {
    rng.gen::<f64>() * 10f64.powi(rng.gen_range(-9..=8))
}

/// Line positions with duplicates (zero distances between distinct
/// points) and near-duplicates.
fn positions(rng: &mut StdRng) -> Vec<f64> {
    let mut xs: Vec<f64> = Vec::with_capacity(POINTS);
    for i in 0..POINTS {
        let x = match (i, rng.gen_range(0..4u32)) {
            (0, _) | (_, 0 | 1) => scaled(rng) - scaled(rng),
            (_, 2) => xs[rng.gen_range(0..i)],
            _ => xs[i - 1] + scaled(rng) * 1e-6,
        };
        xs.push(x);
    }
    xs
}

fn line(rng: &mut StdRng) -> Box<dyn Metric> {
    Box::new(LineMetric::new(positions(rng)).unwrap())
}

fn tree(rng: &mut StdRng) -> Box<dyn Metric> {
    let parents: Vec<Option<(u32, f64)>> = (0..POINTS)
        .map(|v| (v > 0).then(|| (rng.gen_range(0..v as u32), scaled(rng))))
        .collect();
    Box::new(TreeMetric::new(&parents).unwrap())
}

fn graph(rng: &mut StdRng) -> Box<dyn Metric> {
    let n = POINTS as u32;
    let mut edges: Vec<(u32, u32, f64)> = (1..n).map(|v| (v - 1, v, scaled(rng))).collect();
    for _ in 0..POINTS {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((a, b, scaled(rng)));
        }
    }
    Box::new(GraphMetric::from_edges(POINTS, &edges).unwrap())
}

fn euclidean(rng: &mut StdRng, norm: Norm) -> Box<dyn Metric> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(POINTS);
    for i in 0..POINTS {
        let row = if i > 0 && rng.gen_bool(0.2) {
            rows[rng.gen_range(0..i)].clone()
        } else {
            (0..3).map(|_| scaled(rng) - scaled(rng)).collect()
        };
        rows.push(row);
    }
    Box::new(EuclideanMetric::new(&rows, norm).unwrap())
}

/// A line's matrix with every zero on or below the diagonal written as
/// `-0.0`: the signs of a zero pair differ across the diagonal, which the
/// `==` symmetry check accepts.
fn dense(rng: &mut StdRng) -> Box<dyn Metric> {
    let line = LineMetric::new(positions(rng)).unwrap();
    let mut d = Vec::with_capacity(POINTS * POINTS);
    for a in line.points() {
        for b in line.points() {
            let v = line.distance(a, b);
            d.push(if v == 0.0 && a >= b { -0.0 } else { v });
        }
    }
    Box::new(DenseMetric::new(d, POINTS).unwrap())
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|d| d.to_bits()).collect()
}

/// What a metric offers beyond per-call `distance`.
struct Offers {
    /// Whether it lends stored rows (never anchor-dependent).
    lends: bool,
    /// Per anchor, whether `screen_distances` screened the whole space.
    screens: Vec<bool>,
}

/// Checks `fill_row` (whole and prefix rows) and, when it is `Some`,
/// `row` against per-call `distance` bit for bit at every anchor, and
/// every screened bracket `0 ≤ lo ≤ distance ≤ hi`. Returns what `m`
/// offers; whether it lends stored rows must not depend on the anchor.
fn check_rows<M: Metric + ?Sized>(m: &M, label: &str) -> Offers {
    let n = m.len();
    let mut filled = vec![f64::NAN; n];
    let ids: Vec<u32> = (0..n as u32).collect();
    let (mut lo, mut hi) = (vec![f64::NAN; n], vec![f64::NAN; n]);
    let mut lends = None;
    let mut screens = Vec::with_capacity(n);
    for q in m.points() {
        let dists: Vec<f64> = m.points().map(|p| m.distance(p, q)).collect();
        let exact = bits(&dists);
        m.fill_row(q, &mut filled);
        assert_eq!(bits(&filled), exact, "{label}: fill_row({q})");
        m.fill_row(q, &mut filled[..n / 3]);
        assert_eq!(
            bits(&filled[..n / 3]),
            exact[..n / 3],
            "{label}: prefix {q}"
        );
        let row = m.row(q);
        if let Some(row) = row {
            assert_eq!(bits(row), exact, "{label}: row({q})");
        }
        let first = *lends.get_or_insert(row.is_some());
        assert_eq!(row.is_some(), first, "{label}: row({q}) changed kind");
        let screened = m.screen_distances(q, &ids, &mut lo, &mut hi);
        if screened {
            for (p, &d) in dists.iter().enumerate() {
                let (l, h) = (lo[p], hi[p]);
                assert!(
                    0.0 <= l && l <= d && d <= h,
                    "{label}: screen({q}) brackets [{l}, {h}] miss d({p}) = {d}"
                );
            }
        }
        screens.push(screened);
    }
    Offers {
        lends: lends.expect("non-empty metric"),
        screens,
    }
}

#[test]
fn rows_are_verbatim_and_wrappers_forward_them() {
    type Build = fn(&mut StdRng) -> Box<dyn Metric>;
    // (name, build, stores rows, screens)
    let metrics: [(&str, Build, bool, bool); 7] = [
        ("line", line, false, false),
        ("tree", tree, false, false),
        ("graph", graph, true, false),
        ("euclidean-l1", |r| euclidean(r, Norm::L1), false, true),
        ("euclidean-l2", |r| euclidean(r, Norm::L2), false, true),
        ("euclidean-linf", |r| euclidean(r, Norm::LInf), false, true),
        ("dense", dense, true, false),
    ];
    for seed in [1u64, 2, 3] {
        for (name, build, stores, screens) in metrics {
            let make = || build(&mut StdRng::seed_from_u64(seed));
            let label = format!("{name} seed {seed}");
            let boxed = make();
            let bare = check_rows(boxed.as_ref(), &label);
            let lends = bare.lends;
            assert_eq!(lends, stores, "{label}: stored rows");
            assert!(
                bare.screens.iter().all(|&s| s == screens),
                "{label}: screening"
            );
            let via_box = check_rows(&boxed, &format!("{label} in Box"));
            assert_eq!(
                via_box.lends, lends,
                "{label}: Box<dyn Metric> must forward row"
            );
            assert_eq!(
                via_box.screens, bare.screens,
                "{label}: Box<dyn Metric> must forward screen_distances"
            );
            let shared = SharedMetric(Arc::from(make()));
            let via_shared = check_rows(&shared, &format!("{label} in SharedMetric"));
            assert_eq!(
                via_shared.lends, lends,
                "{label}: SharedMetric must forward row"
            );
            assert_eq!(
                via_shared.screens, bare.screens,
                "{label}: SharedMetric must forward screen_distances"
            );
        }
    }
}

#[test]
fn pd_reads_stored_rows_in_place_and_caches_computed_ones() {
    // A 1280-point graph: the engine reads the closure's rows in place,
    // so nothing passes through its row cache.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 120,
    };
    let sc = by_name("zipf-services-large")
        .unwrap()
        .build(&profile, 5)
        .expect("zipf-services-large");
    let inst = sc.instance();
    assert!(inst.num_points() > 1024);
    assert!(
        inst.metric().row(PointId(0)).is_some(),
        "graph rows are stored"
    );
    let mut engine = PdOmflp::new(inst);
    for r in &sc.requests {
        engine.serve(r).unwrap();
    }
    assert!(engine.solution().facilities().len() > 1);
    assert_eq!(engine.distance_cache_stats(), Some((0, 0, 0)));
    assert_eq!(engine.row_fallback_promotions(), Some(0));

    // A small line (hotspot-drift) computes its distances: the engine fills
    // their rows through the cache at any size.
    let sc = by_name("hotspot-drift")
        .unwrap()
        .build(&CatalogProfile::default(), 5)
        .expect("hotspot-drift");
    let inst = sc.instance();
    assert!(inst.num_points() <= 1024);
    assert!(inst.metric().row(PointId(0)).is_none());
    let mut engine = PdOmflp::new(inst);
    for r in &sc.requests {
        engine.serve(r).unwrap();
    }
    let (_, misses, _) = engine.distance_cache_stats().expect("always Some");
    assert!(misses > 0, "computed rows must be filled through the cache");
}
