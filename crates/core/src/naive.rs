//! The retained linear-scan PD serve path — differential-testing reference.
//!
//! [`NaivePd`] is the PD-OMFLP implementation exactly as it stood before the
//! incremental index layer ([`crate::index`]) landed: `nearest_offering` /
//! `nearest_large` scan every open facility per query, and
//! `post_open_small` / `post_open_large` re-walk the full request history on
//! every opening. It is the one frozen reference engine, gated behind the
//! `naive-ref` feature so production builds never ship it:
//!
//! * the differential suite (`tests/tests/differential.rs`) proves the
//!   indexed [`crate::pd::PdOmflp`] produces **bit-identical** outcomes,
//!   duals and bid matrices on every catalog family, and the lockstep
//!   suites replay against it arrival by arrival;
//! * the bench runner's `--emit-json` path times it against the indexed
//!   engine so `BENCH_pd.json` records the speedup the index buys, and
//!   checks every timed run of the large PD cells against its total cost.
//!
//! Do not "fix" or optimize this module: its value is being the frozen
//! pre-index semantics. Behavioral changes belong in `pd.rs`, mirrored here
//! only if the algorithm itself (not its data structures) changes.

use crate::algorithm::{OnlineAlgorithm, ServeOutcome};
use crate::instance::Instance;
use crate::pd::PastRequest;
use crate::request::Request;
use crate::solution::{FacilityId, Solution};
use crate::{CoreError, EPS};
use omfl_commodity::{CommodityId, CommoditySet};
use omfl_metric::PointId;

/// PD-OMFLP with the original linear-scan serve path (see module docs).
pub struct NaivePd<'a> {
    inst: &'a Instance,
    sol: Solution,
    past: Vec<PastRequest>,
    /// For each commodity, `(past request index, member slot)` of earlier
    /// requests demanding it — the update set when a small facility opens.
    past_by_e: Vec<Vec<(u32, u16)>>,
    /// Open small facilities offering commodity `e`.
    small_by_e: Vec<Vec<FacilityId>>,
    /// Open large facilities.
    large_facs: Vec<FacilityId>,
    /// `B[m][e]`, flat `m * |S| + e`.
    b_small: Vec<f64>,
    /// `B̂[m]`.
    b_large: Vec<f64>,
    /// Cached `f^{e}_m`, flat `m * |S| + e`.
    f_small: Vec<f64>,
    /// Cached `f^{S}_m`.
    f_full: Vec<f64>,
    /// Scratch: `d(m, r)` for the current arrival.
    dist_row: Vec<f64>,
    /// Running `Σ_r Σ_e a_{re}` for the Corollary 8 check.
    dual_sum: f64,
}

/// Per-member outcome inside one arrival.
#[derive(Clone, Copy, Debug)]
enum MemberServe {
    /// Connected to an existing facility (constraint 1).
    Existing(FacilityId),
    /// Temporary small facility at this location (constraint 3).
    Temp(PointId),
}

impl<'a> NaivePd<'a> {
    /// Creates the reference algorithm over an instance.
    pub fn new(inst: &'a Instance) -> Self {
        let m = inst.num_points();
        let s = inst.num_commodities();
        let mut f_small = vec![0.0; m * s];
        let mut f_full = vec![0.0; m];
        for p in 0..m {
            for e in 0..s {
                f_small[p * s + e] = inst.small_cost(PointId(p as u32), CommodityId(e as u16));
            }
            f_full[p] = inst.large_cost(PointId(p as u32));
        }
        Self {
            inst,
            sol: Solution::new(),
            past: Vec::new(),
            past_by_e: vec![Vec::new(); s],
            small_by_e: vec![Vec::new(); s],
            large_facs: Vec::new(),
            b_small: vec![0.0; m * s],
            b_large: vec![0.0; m],
            f_small,
            f_full,
            dist_row: vec![0.0; m],
            dual_sum: 0.0,
        }
    }

    /// The instance the algorithm runs on.
    pub fn instance(&self) -> &Instance {
        self.inst
    }

    /// Frozen dual state of all served requests.
    pub fn past_requests(&self) -> &[PastRequest] {
        &self.past
    }

    /// `Σ_r Σ_e a_{re}` over all served requests.
    pub fn dual_sum(&self) -> f64 {
        self.dual_sum
    }

    /// The incrementally maintained bid matrices `(B, B̂)`.
    pub fn bids(&self) -> (&[f64], &[f64]) {
        (&self.b_small, &self.b_large)
    }

    /// Nearest open facility offering commodity `e` (small-for-`e` or large),
    /// by linear scan over the open facility lists.
    fn nearest_offering(&self, e: CommodityId, from: PointId) -> Option<(FacilityId, f64)> {
        let mut best: Option<(FacilityId, f64)> = None;
        let consider = |best: &mut Option<(FacilityId, f64)>, fid: FacilityId, d: f64| match *best {
            Some((_, bd)) if bd <= d => {}
            _ => *best = Some((fid, d)),
        };
        for &fid in &self.small_by_e[e.index()] {
            let d = self
                .inst
                .distance(from, self.sol.facilities()[fid.index()].location);
            consider(&mut best, fid, d);
        }
        for &fid in &self.large_facs {
            let d = self
                .inst
                .distance(from, self.sol.facilities()[fid.index()].location);
            consider(&mut best, fid, d);
        }
        best
    }

    /// Nearest open large facility, by linear scan.
    fn nearest_large(&self, from: PointId) -> Option<(FacilityId, f64)> {
        let mut best: Option<(FacilityId, f64)> = None;
        for &fid in &self.large_facs {
            let d = self
                .inst
                .distance(from, self.sol.facilities()[fid.index()].location);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((fid, d)),
            }
        }
        best
    }

    /// Applies cap shrinkage for past requests after a *small* facility for
    /// `e` opened at `at` — the full-history walk.
    fn post_open_small(&mut self, e: CommodityId, at: PointId) {
        let s = self.inst.num_commodities();
        let m = self.inst.num_points();
        for &(pi, slot) in &self.past_by_e[e.index()] {
            let pr = &self.past[pi as usize];
            let dj = self.inst.distance(at, pr.location);
            let old = pr.caps[slot as usize];
            if dj < old {
                let loc = pr.location;
                for p in 0..m {
                    let dpj = self.inst.distance(PointId(p as u32), loc);
                    let delta = (old - dpj).max(0.0) - (dj - dpj).max(0.0);
                    self.b_small[p * s + e.index()] -= delta;
                }
                self.past[pi as usize].caps[slot as usize] = dj;
            }
        }
    }

    /// Applies cap shrinkage after a *large* facility opened at `at` — the
    /// full-history walk.
    fn post_open_large(&mut self, at: PointId) {
        let s = self.inst.num_commodities();
        let m = self.inst.num_points();
        for pi in 0..self.past.len() {
            let loc = self.past[pi].location;
            let dj = self.inst.distance(at, loc);
            // Large-facility cap.
            let old_total = self.past[pi].cap_total;
            if dj < old_total {
                for p in 0..m {
                    let dpj = self.inst.distance(PointId(p as u32), loc);
                    let delta = (old_total - dpj).max(0.0) - (dj - dpj).max(0.0);
                    self.b_large[p] -= delta;
                }
                self.past[pi].cap_total = dj;
            }
            // Per-commodity caps (a large facility offers every commodity).
            for slot in 0..self.past[pi].commodities.len() {
                let old = self.past[pi].caps[slot];
                if dj < old {
                    let e = self.past[pi].commodities[slot];
                    for p in 0..m {
                        let dpj = self.inst.distance(PointId(p as u32), loc);
                        let delta = (old - dpj).max(0.0) - (dj - dpj).max(0.0);
                        self.b_small[p * s + e.index()] -= delta;
                    }
                    self.past[pi].caps[slot] = dj;
                }
            }
        }
    }

    /// Freezes the served request's duals into the bid matrices.
    fn freeze(&mut self, request: &Request, members: &[CommodityId], duals: &[f64]) {
        let s = self.inst.num_commodities();
        let m = self.inst.num_points();
        let loc = request.location();
        let pi = self.past.len() as u32;
        let mut caps = Vec::with_capacity(members.len());
        for (slot, (&e, &a)) in members.iter().zip(duals).enumerate() {
            let d_fe = self
                .nearest_offering(e, loc)
                .map(|(_, d)| d)
                .unwrap_or(f64::INFINITY);
            let cap = a.min(d_fe);
            caps.push(cap);
            if cap > 0.0 {
                for p in 0..m {
                    let add = (cap - self.dist_row[p]).max(0.0);
                    self.b_small[p * s + e.index()] += add;
                }
            }
            self.past_by_e[e.index()].push((pi, slot as u16));
        }
        let total: f64 = duals.iter().sum();
        let d_fhat = self
            .nearest_large(loc)
            .map(|(_, d)| d)
            .unwrap_or(f64::INFINITY);
        let cap_total = total.min(d_fhat);
        if cap_total > 0.0 {
            for p in 0..m {
                self.b_large[p] += (cap_total - self.dist_row[p]).max(0.0);
            }
        }
        self.dual_sum += total;
        self.past.push(PastRequest {
            location: loc,
            commodities: members.to_vec(),
            duals: duals.to_vec(),
            caps,
            cap_total,
        });
    }
}

/// `a` is tight against target `t` (reached within tolerance).
#[inline]
fn tight(value: f64, target: f64) -> bool {
    value >= target - EPS * (1.0 + target.abs())
}

impl OnlineAlgorithm for NaivePd<'_> {
    fn serve(&mut self, request: &Request) -> Result<ServeOutcome, CoreError> {
        request.validate(self.inst)?;
        let loc = request.location();
        let s = self.inst.num_commodities();
        let mpts = self.inst.num_points();
        let members: Vec<CommodityId> = request.demand().iter().collect();
        let k = members.len();

        // Distance row d(m, r), reused everywhere this arrival.
        for p in 0..mpts {
            self.dist_row[p] = self.inst.distance(PointId(p as u32), loc);
        }

        // Per-commodity targets t1 (connect) / t3 (temp open) and joint
        // targets t2 (connect large) / t4 (open large).
        let mut t1 = vec![f64::INFINITY; k];
        let mut t1_fac: Vec<Option<FacilityId>> = vec![None; k];
        let mut t3 = vec![f64::INFINITY; k];
        let mut t3_loc = vec![PointId(0); k];
        for (i, &e) in members.iter().enumerate() {
            if let Some((fid, d)) = self.nearest_offering(e, loc) {
                t1[i] = d;
                t1_fac[i] = Some(fid);
            }
            let mut best = f64::INFINITY;
            let mut best_m = PointId(0);
            for p in 0..mpts {
                let v = (self.f_small[p * s + e.index()] - self.b_small[p * s + e.index()])
                    .max(0.0)
                    + self.dist_row[p];
                if v < best {
                    best = v;
                    best_m = PointId(p as u32);
                }
            }
            t3[i] = best;
            t3_loc[i] = best_m;
        }
        let (t2, t2_fac) = match self.nearest_large(loc) {
            Some((fid, d)) => (d, Some(fid)),
            None => (f64::INFINITY, None),
        };
        let mut t4 = f64::INFINITY;
        let mut t4_loc = PointId(0);
        for p in 0..mpts {
            let v = (self.f_full[p] - self.b_large[p]).max(0.0) + self.dist_row[p];
            if v < t4 {
                t4 = v;
                t4_loc = PointId(p as u32);
            }
        }

        // Event loop: raise unserved duals simultaneously.
        let mut a = vec![0.0f64; k];
        let mut outcome: Vec<Option<MemberServe>> = vec![None; k];
        let mut total: f64 = 0.0;
        let mut large_mode: Option<(Option<FacilityId>, PointId, bool)> = None;
        loop {
            let unserved: Vec<usize> = (0..k).filter(|&i| outcome[i].is_none()).collect();
            let u = unserved.len();
            if u == 0 {
                break;
            }
            let mut delta = f64::INFINITY;
            for &i in &unserved {
                delta = delta.min(t1[i] - a[i]).min(t3[i] - a[i]);
            }
            delta = delta
                .min((t2 - total) / u as f64)
                .min((t4 - total) / u as f64);
            debug_assert!(delta.is_finite(), "t3/t4 are always finite");
            let delta = delta.max(0.0);
            for &i in &unserved {
                a[i] += delta;
            }
            total += delta * u as f64;

            // Priority: large-connect, large-open, small-connect, small-open.
            if tight(total, t2) {
                large_mode = Some((t2_fac, PointId(0), false));
                break;
            }
            if tight(total, t4) {
                large_mode = Some((None, t4_loc, true));
                break;
            }
            let mut progressed = false;
            for &i in &unserved {
                if outcome[i].is_none() && tight(a[i], t1[i]) {
                    outcome[i] = Some(MemberServe::Existing(
                        t1_fac[i].expect("finite t1 implies a facility"),
                    ));
                    progressed = true;
                }
            }
            for &i in &unserved {
                if outcome[i].is_none() && tight(a[i], t3[i]) {
                    outcome[i] = Some(MemberServe::Temp(t3_loc[i]));
                    progressed = true;
                }
            }
            debug_assert!(progressed, "event loop must make progress each iteration");
            if !progressed {
                // Defensive: force the cheapest pending target to fire so a
                // floating-point corner cannot hang the loop.
                let (&i, _) = unserved
                    .iter()
                    .zip(std::iter::repeat(()))
                    .min_by(|(&x, _), (&y, _)| {
                        let vx = t1[x].min(t3[x]) - a[x];
                        let vy = t1[y].min(t3[y]) - a[y];
                        vx.partial_cmp(&vy).expect("finite")
                    })
                    .expect("unserved non-empty");
                outcome[i] = Some(if t1[i] <= t3[i] {
                    MemberServe::Existing(t1_fac[i].expect("finite t1"))
                } else {
                    MemberServe::Temp(t3_loc[i])
                });
            }
        }

        // Realize the outcome.
        let start_con = self.sol.construction_cost();
        let mut opened = Vec::new();
        let (assigned, served_by_large) = match large_mode {
            Some((Some(fid), _, false)) => (vec![fid], true),
            Some((_, at, true)) => {
                let fid =
                    self.sol
                        .open_facility(self.inst, at, CommoditySet::full(self.inst.universe()));
                self.large_facs.push(fid);
                opened.push(fid);
                self.post_open_large(at);
                (vec![fid], true)
            }
            Some((None, _, false)) => unreachable!("large-connect requires a facility"),
            None => {
                let mut fids = Vec::with_capacity(k);
                for (i, &e) in members.iter().enumerate() {
                    match outcome[i].expect("all members served") {
                        MemberServe::Existing(fid) => fids.push(fid),
                        MemberServe::Temp(at) => {
                            let config = CommoditySet::singleton(self.inst.universe(), e)
                                .map_err(CoreError::Commodity)?;
                            let fid = self.sol.open_facility(self.inst, at, config);
                            self.small_by_e[e.index()].push(fid);
                            opened.push(fid);
                            self.post_open_small(e, at);
                            fids.push(fid);
                        }
                    }
                }
                (fids, false)
            }
        };
        let assignment = self.sol.assign(self.inst, request.clone(), &assigned);
        let connection_cost = assignment.connection_cost;
        let assigned_to = assignment.facilities.clone();

        self.freeze(request, &members, &a);

        Ok(ServeOutcome {
            opened,
            assigned_to,
            connection_cost,
            construction_cost: self.sol.construction_cost() - start_con,
            served_by_large,
        })
    }

    fn solution(&self) -> &Solution {
        &self.sol
    }

    fn name(&self) -> &'static str {
        "pd-omflp-naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pd::PdOmflp;
    use omfl_commodity::cost::CostModel;
    use omfl_metric::line::LineMetric;

    /// The indexed engine and this reference must agree bit for bit on a
    /// workload that exercises every event type (connects, small and large
    /// openings, cap shrinks). The full catalog-wide differential suite
    /// lives in `tests/tests/differential.rs`; this is the in-crate smoke
    /// version.
    #[test]
    fn indexed_pd_is_bit_identical_on_a_mixed_line_workload() {
        let inst = Instance::new(
            Box::new(LineMetric::uniform(9, 6.0).unwrap()),
            8,
            CostModel::power(8, 1.0, 2.0),
        )
        .unwrap();
        let u = inst.universe();
        let reqs: Vec<Request> = (0..160u32)
            .map(|i| {
                let ids = [
                    (i % 8) as u16,
                    ((i * 5 + 1) % 8) as u16,
                    ((i * 3 + 2) % 8) as u16,
                ];
                Request::new(
                    PointId((i * 7) % 9),
                    CommoditySet::from_ids(u, &ids).unwrap(),
                )
            })
            .collect();
        let mut fast = PdOmflp::new(&inst);
        let mut slow = NaivePd::new(&inst);
        for (i, r) in reqs.iter().enumerate() {
            let a = fast.serve(r).unwrap();
            let b = slow.serve(r).unwrap();
            assert_eq!(a, b, "outcome diverged at request {i}");
            assert_eq!(
                fast.dual_sum().to_bits(),
                slow.dual_sum().to_bits(),
                "dual sum diverged at request {i}"
            );
        }
        let (fb, fbh) = fast.bids();
        let (nb, nbh) = slow.bids();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Indexed B is commodity-major (e·m + p); the reference is
        // point-major (p·s + e). Compare cellwise across the transpose.
        let (m, s) = (inst.num_points(), inst.num_commodities());
        for p in 0..m {
            for e in 0..s {
                assert_eq!(
                    fb[e * m + p].to_bits(),
                    nb[p * s + e].to_bits(),
                    "B[{p}][{e}] diverged"
                );
            }
        }
        assert_eq!(bits(fbh), bits(nbh), "B-hat vectors diverged");
        assert_eq!(
            fast.solution().total_cost().to_bits(),
            slow.solution().total_cost().to_bits()
        );
        // The whole point: many requests, few index refreshes.
        assert!(fast.facility_index().openings() < reqs.len());
    }

    #[test]
    fn naive_reference_still_solves_the_theorem2_gadget() {
        let inst = Instance::new(
            Box::new(LineMetric::single_point()),
            16,
            CostModel::ceil_sqrt(16),
        )
        .unwrap();
        let mut alg = NaivePd::new(&inst);
        for e in 0..16u16 {
            let r = Request::new(
                PointId(0),
                CommoditySet::from_ids(inst.universe(), &[e]).unwrap(),
            );
            alg.serve(&r).unwrap();
        }
        alg.solution().verify(&inst).unwrap();
        assert_eq!(alg.solution().num_large_facilities(), 1);
        assert_eq!(alg.name(), "pd-omflp-naive");
    }
}
