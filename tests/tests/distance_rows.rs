//! The distance-row contract and the PD engine's use of it.
//!
//! Every `Metric` impl must fill rows bit for bit like its per-call
//! `distance`, a metric that stores its closure lends its rows through
//! `Metric::row` with the same bits, and a metric that screens
//! (`Metric::screen_distances`) brackets every distance it screens. A
//! metric that offers a `coherent_order` keeps triangle violations within
//! the radius bounds' slack, and one whose `kd_coords` claim `isometric`
//! computes exactly the ascending-axis L2 fold over them: the engine's
//! block pruning and layout distance passes rest on both. The wrappers the
//! program routes metrics through (`Box<dyn Metric>` in every `Instance`,
//! `SharedMetric` in every scenario) must forward all of it: a wrapper
//! that drops `row` would silently send the engine to block passes over a
//! metric whose rows are at hand, and one that drops screening would send
//! the block-pass freeze walk to an exact distance call per point. No
//! outcome test can see either. The second test pins the engine's rule:
//! stored rows when the metric lends them, block passes otherwise.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::heavy::SharedMetric;
use omfl_core::index::RADIUS_BOUND_SLACK;
use omfl_core::naive::NaivePd;
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
    /// Its `coherent_order`.
    order: Option<Vec<u32>>,
    /// Its `kd_coords`: coordinate bits, dimension, isometric claim.
    kd: Option<(Vec<u64>, usize, bool)>,
}

/// Checks that a `coherent_order` is a permutation and that every triple
/// keeps `d(b,c) ≥ d(a,c) − d(a,b) − RADIUS_BOUND_SLACK·(d(a,c) + d(a,b))`:
/// the triangle inequality within the slack of the block radius bounds
/// (`a` a block representative, `b` a member, `c` the query).
fn check_order(m: &(impl Metric + ?Sized), order: &[u32], label: &str) {
    let n = m.len();
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..n as u32).collect::<Vec<_>>(),
        "{label}: coherent_order is not a permutation"
    );
    let d: Vec<Vec<f64>> = m
        .points()
        .map(|a| m.points().map(|b| m.distance(a, b)).collect())
        .collect();
    for a in 0..n {
        for b in 0..n {
            for c in 0..n {
                let (ab, ac, bc) = (d[a][b], d[a][c], d[b][c]);
                assert!(
                    bc >= ac - ab - RADIUS_BOUND_SLACK * (ac + ab),
                    "{label}: d({b},{c}) = {bc} undercuts d({a},{c}) − d({a},{b}) = {ac} − {ab}"
                );
            }
        }
    }
}

/// Checks that isometric `kd_coords` give `distance` bit for bit through
/// the ascending-axis L2 fold.
fn check_embedding(m: &(impl Metric + ?Sized), coords: &[f64], dim: usize, label: &str) {
    assert_eq!(coords.len(), m.len() * dim, "{label}: kd_coords rows");
    for a in m.points() {
        for b in m.points() {
            let (ca, cb) = (&coords[a.index() * dim..], &coords[b.index() * dim..]);
            let mut acc = 0.0f64;
            for axis in 0..dim {
                let diff = ca[axis] - cb[axis];
                acc += diff * diff;
            }
            assert_eq!(
                acc.sqrt().to_bits(),
                m.distance(a, b).to_bits(),
                "{label}: isometric kd_coords miss d({a}, {b})"
            );
        }
    }
}

/// Checks `fill_row` (whole and prefix rows) and, when it is `Some`,
/// `row` against per-call `distance` bit for bit at every anchor, every
/// screened bracket `0 ≤ lo ≤ distance ≤ hi`, a `coherent_order`
/// ([`check_order`]) and isometric `kd_coords` ([`check_embedding`]).
/// Returns what `m` offers; whether it lends stored rows must not depend
/// on the anchor.
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
    let order = m.coherent_order();
    if let Some(order) = &order {
        check_order(m, order, label);
    }
    let kd = m.kd_coords().map(|kd| {
        if kd.isometric {
            check_embedding(m, &kd.coords, kd.dim, label);
        }
        (bits(&kd.coords), kd.dim, kd.isometric)
    });
    Offers {
        lends: lends.expect("non-empty metric"),
        screens,
        order,
        kd,
    }
}

#[test]
fn rows_are_verbatim_and_wrappers_forward_them() {
    type Build = fn(&mut StdRng) -> Box<dyn Metric>;
    // (name, build, stores rows, screens, orders)
    let metrics: [(&str, Build, bool, bool, bool); 7] = [
        ("line", line, false, false, true),
        ("tree", tree, false, false, true),
        ("graph", graph, true, false, true),
        (
            "euclidean-l1",
            |r| euclidean(r, Norm::L1),
            false,
            true,
            true,
        ),
        (
            "euclidean-l2",
            |r| euclidean(r, Norm::L2),
            false,
            true,
            true,
        ),
        (
            "euclidean-linf",
            |r| euclidean(r, Norm::LInf),
            false,
            true,
            true,
        ),
        ("dense", dense, true, false, false),
    ];
    for seed in [1u64, 2, 3] {
        for (name, build, stores, screens, orders) in metrics {
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
            assert_eq!(bare.order.is_some(), orders, "{label}: coherent_order");
            let via_box = check_rows(&boxed, &format!("{label} in Box"));
            assert_eq!(
                via_box.lends, lends,
                "{label}: Box<dyn Metric> must forward row"
            );
            assert_eq!(
                via_box.screens, bare.screens,
                "{label}: Box<dyn Metric> must forward screen_distances"
            );
            assert_eq!(
                via_box.order, bare.order,
                "{label}: Box<dyn Metric> must forward coherent_order"
            );
            assert_eq!(
                via_box.kd, bare.kd,
                "{label}: Box<dyn Metric> must forward kd_coords"
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
            assert_eq!(
                via_shared.order, bare.order,
                "{label}: SharedMetric must forward coherent_order"
            );
            assert_eq!(
                via_shared.kd, bare.kd,
                "{label}: SharedMetric must forward kd_coords"
            );
        }
    }
}

#[test]
fn pd_reads_stored_rows_in_place_and_block_passes_otherwise() {
    // The engine picks its distance source from the metric, once: a
    // 1280-point graph lends its closure rows, so the engine reads them in
    // place; a small line (hotspot-drift) computes its distances, so the
    // engine takes layout block passes although it is far below
    // `HUGE_METRIC_MIN_POINTS`. Both must replay the oracle bit for bit.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 120,
    };
    let graph = by_name("zipf-services-large")
        .unwrap()
        .build(&profile, 5)
        .expect("zipf-services-large");
    let line = by_name("hotspot-drift")
        .unwrap()
        .build(&CatalogProfile::default(), 5)
        .expect("hotspot-drift");
    assert!(graph.instance().num_points() > 1024);
    assert!(line.instance().num_points() <= 1024);
    for (sc, stores) in [(&graph, true), (&line, false)] {
        let inst = sc.instance();
        assert_eq!(
            inst.metric().row(PointId(0)).is_some(),
            stores,
            "{}",
            sc.name
        );
        let mut engine = PdOmflp::new(inst);
        assert_eq!(engine.partial_rows_active(), !stores, "{}", sc.name);
        let mut oracle = NaivePd::new(inst);
        for (step, r) in sc.requests.iter().enumerate() {
            let (a, b) = (engine.serve(r).unwrap(), oracle.serve(r).unwrap());
            assert_eq!(a, b, "{}: outcome diverged at arrival {step}", sc.name);
        }
        assert!(engine.solution().facilities().len() > 1, "{}", sc.name);
    }
}
