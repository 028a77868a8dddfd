//! The fleet budget allocator: splitting one pump's flow budget across
//! stacks.
//!
//! All quantities are in *flow-scale units*: a stack's share is the
//! multiplier handed to [`MpsocConfig::with_flow_scale`]
//! (1.0 = the nominal per-channel flow of the stack's configuration), so
//! the budget composes with any base configuration without unit plumbing.
//!
//! [`MpsocConfig::with_flow_scale`]: crate::mpsoc::MpsocConfig::with_flow_scale

use crate::obs;
use crate::{CoreError, Result};

/// How the fleet allocator splits the shared pump budget across stacks at
/// each reallocation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Every stack gets the same share regardless of its thermal state —
    /// the per-stack-provisioned baseline the fleet gate compares against.
    Uniform,
    /// Water-filling on the stacks' measured time-peak inter-layer
    /// gradients: every branch starts at the valve minimum, and the surplus
    /// is poured in proportion to the gradients, capping filled branches at
    /// the valve maximum and re-pouring the overflow. Stacks that measured
    /// no gradient (idle) stay at the minimum unless the budget cannot be
    /// spent elsewhere.
    GradientWaterfill,
    /// One-step model-predictive water-filling: instead of pouring on the
    /// *trailing* measured gradients, pour on the gradients each stack is
    /// predicted to show over the **next** segment. The prediction
    /// composes two cheap models ([`PredictiveContext`]): a workload
    /// forecast (next-segment / current-segment power ratio per stack,
    /// when the trace is known ahead of time) and a per-stack sensitivity
    /// surrogate (gradient-vs-flow-share slope, recursively refit from the
    /// (allocation, measured gradient) pairs the fleet loop already feeds
    /// back — [`SurrogateModel`]). With no lookahead and a flat surrogate
    /// the policy degrades to [`BudgetPolicy::GradientWaterfill`]
    /// **bitwise** — it is a strict generalization, pinned by the
    /// differential tests.
    Predictive,
}

impl BudgetPolicy {
    /// All policies, in report order.
    #[must_use]
    pub fn all() -> Vec<BudgetPolicy> {
        vec![
            BudgetPolicy::Uniform,
            BudgetPolicy::GradientWaterfill,
            BudgetPolicy::Predictive,
        ]
    }

    /// Short label used in report rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BudgetPolicy::Uniform => "uniform",
            BudgetPolicy::GradientWaterfill => "waterfill",
            BudgetPolicy::Predictive => "predictive",
        }
    }
}

/// Forecast ratios within this distance of 1.0 are *uninformative*: the
/// known future looks exactly like the present, so the trailing
/// measurement is already the best one-step prediction and
/// [`BudgetPolicy::Predictive`] falls back to the plain waterfill —
/// bitwise, which is what pins the constant-trace differential test.
const RATIO_EPS: f64 = 1e-12;

/// Share moves smaller than this carry no slope information (the secant
/// would divide by ~0); the surrogate skips them instead of refitting.
const MIN_SHARE_DELTA: f64 = 1e-9;

/// Magnitude cap on a surrogate slope, K per flow-scale unit. A secant
/// through two near-identical shares can be arbitrarily steep; clamping
/// keeps one bad sample from catapulting the predicted gradients, and
/// bounds the influence of adversarial slopes fed through
/// [`PredictiveContext`].
const SLOPE_CAP_K_PER_SCALE: f64 = 1e4;

/// Exponential-forgetting weight of the incumbent slope when a new secant
/// sample arrives (`slope ← λ·slope + (1-λ)·sample`).
const SLOPE_FORGETTING: f64 = 0.5;

/// Fixed-point sweeps of `alloc ← waterfill(predicted(alloc))` the
/// predictive policy runs. The prediction depends on the allocation (the
/// slope term) and the allocation on the prediction; three sweeps settle
/// the loop to well under the valve band's resolution in practice, and a
/// *fixed* count keeps the policy a pure function of its inputs.
const PREDICTIVE_SWEEPS: usize = 3;

/// Per-stack first-order sensitivity surrogate: the recursively refit
/// slope `dg/ds` of the stack's time-peak gradient against its flow share,
/// plus the last (share, gradient) observation the next secant will be
/// taken against. `Default` is the *uninformative* state (zero slope,
/// nothing observed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StackSurrogate {
    /// Current slope estimate, kelvin per flow-scale unit (typically
    /// negative: more coolant, smaller gradient). `0.0` = uninformative.
    pub slope_k_per_scale: f64,
    /// Flow share of the last observation.
    pub last_share: f64,
    /// Measured time-peak gradient of the last observation, kelvin.
    pub last_gradient_k: f64,
    /// Whether any observation has landed yet (the first one only seeds
    /// the secant base point).
    pub observed: bool,
}

impl StackSurrogate {
    /// Folds one (share, measured gradient) pair into the surrogate.
    /// Returns `true` when the slope was actually refit. Non-finite
    /// observations and degenerate moves (|Δshare| below the secant
    /// resolution — e.g. a constant-allocation history) are skipped, never
    /// panicked on; the slope sample is clamped to
    /// ±`SLOPE_CAP_K_PER_SCALE` and blended with exponential forgetting.
    pub fn observe(&mut self, share: f64, gradient_k: f64) -> bool {
        if !(share.is_finite() && gradient_k.is_finite()) {
            return false;
        }
        let mut refit = false;
        if self.observed {
            let d_share = share - self.last_share;
            if d_share.abs() > MIN_SHARE_DELTA {
                let sample = ((gradient_k - self.last_gradient_k) / d_share)
                    .clamp(-SLOPE_CAP_K_PER_SCALE, SLOPE_CAP_K_PER_SCALE);
                self.slope_k_per_scale = if self.slope_k_per_scale == 0.0 {
                    sample
                } else {
                    SLOPE_FORGETTING * self.slope_k_per_scale + (1.0 - SLOPE_FORGETTING) * sample
                };
                refit = true;
            }
        }
        self.last_share = share;
        self.last_gradient_k = gradient_k;
        self.observed = true;
        refit
    }

    /// The slope the predictor applies: the estimate, re-clamped so even a
    /// hand-constructed adversarial surrogate cannot push a non-finite or
    /// unbounded term into the prediction.
    #[must_use]
    pub fn effective_slope_k_per_scale(&self) -> f64 {
        if self.slope_k_per_scale.is_finite() {
            self.slope_k_per_scale
                .clamp(-SLOPE_CAP_K_PER_SCALE, SLOPE_CAP_K_PER_SCALE)
        } else {
            0.0
        }
    }
}

/// The fleet-level sensitivity surrogate: one [`StackSurrogate`] per
/// stack, refit in lock-step from the allocation/measurement pairs of
/// every reallocation segment, with fit diagnostics for the bench record.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateModel {
    stacks: Vec<StackSurrogate>,
    refits: u64,
}

impl SurrogateModel {
    /// An uninformative surrogate for `n_stacks` stacks.
    #[must_use]
    pub fn new(n_stacks: usize) -> Self {
        Self {
            stacks: vec![StackSurrogate::default(); n_stacks],
            refits: 0,
        }
    }

    /// Assembles a model from externally-held per-stack surrogates (the
    /// serve pool keeps one per session and rebuilds the fleet view each
    /// batch, in live-session order).
    #[must_use]
    pub fn from_stacks(stacks: Vec<StackSurrogate>) -> Self {
        Self { stacks, refits: 0 }
    }

    /// Folds one segment's (shares, measured gradients) into the model.
    /// Entries beyond the shorter of the two slices are ignored; every
    /// actual slope refit bumps the `allocator.surrogate_refits` counter.
    pub fn observe(&mut self, shares: &[f64], gradients_k: &[f64]) {
        for (stack, (&share, &gradient)) in
            self.stacks.iter_mut().zip(shares.iter().zip(gradients_k))
        {
            if stack.observe(share, gradient) {
                self.refits += 1;
                obs::add("allocator.surrogate_refits", 1);
            }
        }
    }

    /// Per-stack surrogates, in stack order.
    #[must_use]
    pub fn stacks(&self) -> &[StackSurrogate] {
        &self.stacks
    }

    /// Slope refits performed so far.
    #[must_use]
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// `true` when no stack carries a usable slope — the surrogate has
    /// nothing to add to the prediction.
    #[must_use]
    pub fn is_flat(&self) -> bool {
        self.stacks
            .iter()
            .all(|s| s.effective_slope_k_per_scale() == 0.0)
    }

    /// Mean |slope| across stacks, K per flow-scale unit (0 when empty) —
    /// the fit-magnitude diagnostic the bench record carries.
    #[must_use]
    pub fn mean_abs_slope_k_per_scale(&self) -> f64 {
        if self.stacks.is_empty() {
            return 0.0;
        }
        self.stacks
            .iter()
            .map(|s| s.effective_slope_k_per_scale().abs())
            .sum::<f64>()
            / self.stacks.len() as f64
    }
}

/// Everything [`BudgetPolicy::Predictive`] predicts from, beyond the
/// trailing gradients every policy sees.
#[derive(Debug, Clone, Copy)]
pub struct PredictiveContext<'a> {
    /// The shares the trailing gradients were measured *at* — the base
    /// point of the surrogate's linear correction.
    pub last_shares: &'a [f64],
    /// Per-stack next-segment / current-segment power ratio, when the
    /// workload is known ahead of time (`None` = no lookahead, e.g. a
    /// serve session with an empty queue). Non-finite or negative entries
    /// are treated as 1.0 (no information).
    pub forecast_ratio: Option<&'a [f64]>,
    /// The fleet's sensitivity surrogate.
    pub surrogate: &'a SurrogateModel,
}

/// `true` when a forecast actually predicts *change*: some stack's power
/// ratio differs from 1.0 beyond `RATIO_EPS`. Shared with the fleet
/// loop so the `allocator.forecast_hits` diagnostics count exactly the
/// boundaries where the forecast steered the allocation.
#[must_use]
pub fn forecast_is_informative(ratios: &[f64]) -> bool {
    ratios
        .iter()
        .map(|&r| sanitize_ratio(r))
        .any(|r| (r - 1.0).abs() > RATIO_EPS)
}

/// Clamps one forecast ratio to a usable value: non-finite or negative
/// ratios carry no information and become 1.0.
fn sanitize_ratio(r: f64) -> f64 {
    if r.is_finite() && r >= 0.0 {
        r
    } else {
        1.0
    }
}

/// The shared pump budget, in per-stack flow-scale units: the allocator
/// must hand out exactly `total_scale` across the fleet, with every
/// stack's share inside `[min_scale, max_scale]` (a branch valve can
/// neither starve a stack nor exceed its channel rating).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PumpBudget {
    /// Sum of all stacks' flow scales the pump sustains.
    pub total_scale: f64,
    /// Smallest per-stack share (keeps every stack's channels wetted).
    pub min_scale: f64,
    /// Largest per-stack share (per-branch valve/pressure rating).
    pub max_scale: f64,
}

impl PumpBudget {
    /// A budget averaging `avg_scale` per stack across `n_stacks`, with the
    /// default valve band `[avg/2, 3·avg/2]` — always feasible, and wide
    /// enough that reallocation has room to act.
    #[must_use]
    pub fn per_stack(avg_scale: f64, n_stacks: usize) -> Self {
        Self {
            total_scale: avg_scale * n_stacks as f64,
            min_scale: 0.5 * avg_scale,
            max_scale: 1.5 * avg_scale,
        }
    }

    /// The uniform per-stack share, `total_scale / n_stacks`.
    #[must_use]
    pub fn uniform_share(&self, n_stacks: usize) -> f64 {
        self.total_scale / n_stacks as f64
    }

    /// Checks the budget is feasible for a fleet of `n_stacks`:
    /// positive finite bounds with `min ≤ max`, and
    /// `n·min ≤ total ≤ n·max` so an allocation summing to the budget
    /// exists inside the valve band.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for malformed bounds (non-finite or
    /// non-positive); [`CoreError::BudgetInfeasible`] when the bounds are
    /// well-formed but the total falls outside the `[n·min, n·max]` band —
    /// the recoverable case a degraded-mode handler can clamp.
    pub fn validate(&self, n_stacks: usize) -> Result<()> {
        self.validate_at(n_stacks, None)
    }

    /// [`PumpBudget::validate`], stamping the reallocation `segment` into
    /// any [`CoreError::BudgetInfeasible`] so mid-run budget decay reports
    /// where in the schedule the feasible band was lost.
    ///
    /// # Errors
    ///
    /// As [`PumpBudget::validate`].
    pub fn validate_at(&self, n_stacks: usize, segment: Option<usize>) -> Result<()> {
        let bad = |what: String| Err(CoreError::InvalidConfig { what });
        if n_stacks == 0 {
            return bad("a fleet needs at least one stack".into());
        }
        if !(self.min_scale.is_finite() && self.min_scale > 0.0) {
            return bad(format!(
                "min_scale must be positive and finite, got {}",
                self.min_scale
            ));
        }
        if !(self.max_scale.is_finite() && self.max_scale >= self.min_scale) {
            return bad(format!(
                "max_scale must be finite and ≥ min_scale, got {} < {}",
                self.max_scale, self.min_scale
            ));
        }
        if !self.total_scale.is_finite() {
            return bad(format!(
                "total_scale must be finite, got {}",
                self.total_scale
            ));
        }
        let n = n_stacks as f64;
        if self.total_scale < n * self.min_scale - 1e-12
            || self.total_scale > n * self.max_scale + 1e-12
        {
            return Err(CoreError::BudgetInfeasible {
                total_scale: self.total_scale,
                min_scale: self.min_scale,
                max_scale: self.max_scale,
                n_stacks,
                segment,
            });
        }
        Ok(())
    }

    /// The graceful-degradation fallback when a pump fault pushes the
    /// total outside the `[n·min, n·max]` valve band: the *band* is
    /// relaxed just enough to admit the total — the pump delivers what it
    /// delivers, so the total itself is never rewritten. A decayed total
    /// lowers `min_scale` to the uniform share (valves throttled below
    /// their design floor); a total above the band raises `max_scale`
    /// symmetrically. Malformed bounds are not repaired; callers validate
    /// those up front.
    #[must_use]
    pub fn clamped_feasible(&self, n_stacks: usize) -> PumpBudget {
        let n = n_stacks.max(1) as f64;
        let share = self.total_scale / n;
        PumpBudget {
            total_scale: self.total_scale,
            min_scale: self.min_scale.min(share),
            max_scale: self.max_scale.max(share),
        }
    }
}

/// Splits `budget` across one stack per entry of `gradients_k` (each
/// stack's most recent time-peak inter-layer gradient, kelvin) according
/// to `policy`. The result always sums to `budget.total_scale` (within
/// float addition error) with every share in `[min_scale, max_scale]` —
/// the invariant the fleet property tests pin down. Negative gradients are
/// treated as zero; the allocation is a pure function of its arguments, so
/// fleet runs stay bitwise deterministic across execution modes.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when the budget is infeasible for the
/// fleet size or any gradient is NaN/infinite.
pub fn allocate(
    policy: BudgetPolicy,
    budget: &PumpBudget,
    gradients_k: &[f64],
) -> Result<Vec<f64>> {
    allocate_with(policy, budget, gradients_k, None)
}

/// [`allocate`] with an optional [`PredictiveContext`]. Only
/// [`BudgetPolicy::Predictive`] reads the context: with `None` (or a
/// context that carries no information — no forecast, flat surrogate) it
/// degrades to [`BudgetPolicy::GradientWaterfill`] *bitwise*, by
/// structurally taking the same `waterfill` call. The other policies
/// ignore `context` entirely.
///
/// # Errors
///
/// As [`allocate`].
pub fn allocate_with(
    policy: BudgetPolicy,
    budget: &PumpBudget,
    gradients_k: &[f64],
    context: Option<&PredictiveContext<'_>>,
) -> Result<Vec<f64>> {
    let n = gradients_k.len();
    budget.validate(n)?;
    if let Some(g) = gradients_k.iter().find(|g| !g.is_finite()) {
        return Err(CoreError::InvalidConfig {
            what: format!("stack gradients must be finite, got {g}"),
        });
    }
    let shares = match policy {
        BudgetPolicy::Uniform => vec![budget.uniform_share(n); n],
        BudgetPolicy::GradientWaterfill => waterfill(budget, gradients_k),
        BudgetPolicy::Predictive => predictive(budget, gradients_k, context),
    };
    Ok(shares)
}

/// One-step MPC: water-fill on *predicted* next-segment gradients
/// `ĝ_i = max(0, r_i · max(0, g_i + b_i · (s_i − s_i^last)))` — forecast
/// ratio `r_i` times the surrogate's linear extrapolation of the trailing
/// measurement `g_i` from the share it was measured at to the candidate
/// share `s_i`. Because `ĝ` depends on the allocation and the allocation
/// on `ĝ`, the loop runs [`PREDICTIVE_SWEEPS`] fixed-point sweeps, each a
/// plain `waterfill` — so the sum/band invariants hold by construction and
/// the result stays a pure function of its inputs. When the context
/// carries no information the function *returns the plain waterfill
/// call*, making the degradation to [`BudgetPolicy::GradientWaterfill`]
/// bitwise rather than merely approximate.
fn predictive(
    budget: &PumpBudget,
    gradients_k: &[f64],
    context: Option<&PredictiveContext<'_>>,
) -> Vec<f64> {
    let n = gradients_k.len();
    let Some(ctx) = context else {
        return waterfill(budget, gradients_k);
    };
    let ratios: Option<Vec<f64>> = ctx
        .forecast_ratio
        .filter(|r| forecast_is_informative(r))
        .map(|r| {
            let mut v: Vec<f64> = r.iter().map(|&x| sanitize_ratio(x)).collect();
            v.resize(n, 1.0);
            v
        });
    if ratios.is_some() {
        obs::add("allocator.forecast_hits", 1);
    }
    let slopes: Vec<f64> = {
        let mut v: Vec<f64> = ctx
            .surrogate
            .stacks()
            .iter()
            .map(StackSurrogate::effective_slope_k_per_scale)
            .collect();
        v.resize(n, 0.0);
        v
    };
    let flat = slopes.iter().all(|&b| b == 0.0);
    if ratios.is_none() && flat {
        // No lookahead, nothing learned: the trailing measurement is the
        // whole prediction — exactly the reactive waterfill.
        return waterfill(budget, gradients_k);
    }
    let mut last: Vec<f64> = ctx.last_shares.to_vec();
    last.resize(n, budget.uniform_share(n.max(1)));
    for s in &mut last {
        if !s.is_finite() {
            *s = budget.uniform_share(n.max(1));
        }
    }
    let predict = |shares: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let extrapolated =
                    (gradients_k[i].max(0.0) + slopes[i] * (shares[i] - last[i])).max(0.0);
                let r = ratios.as_ref().map_or(1.0, |r| r[i]);
                r * extrapolated
            })
            .collect()
    };
    let mut alloc = waterfill(budget, &predict(&last));
    for _ in 1..PREDICTIVE_SWEEPS {
        alloc = waterfill(budget, &predict(&alloc));
    }
    alloc
}

/// Water-filling: start every branch at the valve minimum, pour the
/// surplus in proportion to the (clamped non-negative) gradients, cap
/// branches that reach the valve maximum and re-pour their overflow; any
/// budget left once every loaded branch is full spills uniformly onto the
/// idle branches. Conservation is by construction: every unit of surplus
/// is either poured or still pending.
fn waterfill(budget: &PumpBudget, gradients_k: &[f64]) -> Vec<f64> {
    let n = gradients_k.len();
    let g: Vec<f64> = gradients_k.iter().map(|&x| x.max(0.0)).collect();
    let mut alloc = vec![budget.min_scale; n];
    let mut surplus = budget.total_scale - budget.min_scale * n as f64;
    if g.iter().sum::<f64>() <= 0.0 {
        // Nothing measured anywhere: an even split is the only sensible fill.
        return vec![budget.uniform_share(n); n];
    }
    // Active = loaded branches not yet at the valve maximum.
    let mut active: Vec<usize> = (0..n).filter(|&i| g[i] > 0.0).collect();
    while surplus > 0.0 && !active.is_empty() {
        let sum_g: f64 = active.iter().map(|&i| g[i]).sum();
        let mut filled = Vec::new();
        let mut poured_all = true;
        for &i in &active {
            let give = surplus * g[i] / sum_g;
            if give >= budget.max_scale - alloc[i] {
                poured_all = false;
                filled.push(i);
            }
        }
        if poured_all {
            for &i in &active {
                alloc[i] += surplus * g[i] / sum_g;
            }
            surplus = 0.0;
        } else {
            // Cap the overfull branches exactly and re-pour the rest.
            for &i in &filled {
                surplus -= budget.max_scale - alloc[i];
                alloc[i] = budget.max_scale;
            }
            active.retain(|i| !filled.contains(i));
        }
    }
    // Every loaded branch is full: spill what is left onto idle branches
    // (feasibility guarantees they can absorb it).
    let mut idle: Vec<usize> = (0..n).filter(|&i| g[i] <= 0.0).collect();
    while surplus > 1e-15 && !idle.is_empty() {
        let share = surplus / idle.len() as f64;
        let mut filled = Vec::new();
        let mut poured_all = true;
        for &i in &idle {
            if share >= budget.max_scale - alloc[i] {
                poured_all = false;
                filled.push(i);
            }
        }
        if poured_all {
            for &i in &idle {
                alloc[i] += share;
            }
            surplus = 0.0;
        } else {
            for &i in &filled {
                surplus -= budget.max_scale - alloc[i];
                alloc[i] = budget.max_scale;
            }
            idle.retain(|i| !filled.contains(i));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget3() -> PumpBudget {
        PumpBudget::per_stack(1.0, 3)
    }

    /// The allocation invariant every policy must uphold, asserted once
    /// instead of hand-rolled per test: shares sum to the budget total
    /// within 1e-9 and each share sits inside the valve band (with a
    /// 1e-12 float slack, matching `PumpBudget::validate`).
    fn assert_allocation_feasible(budget: &PumpBudget, alloc: &[f64]) {
        let sum: f64 = alloc.iter().sum();
        assert!(
            (sum - budget.total_scale).abs() < 1e-9,
            "sum {sum} != budget {} for {alloc:?}",
            budget.total_scale
        );
        for &a in alloc {
            assert!(
                a >= budget.min_scale - 1e-12 && a <= budget.max_scale + 1e-12,
                "share {a} outside [{}, {}] in {alloc:?}",
                budget.min_scale,
                budget.max_scale
            );
        }
    }

    /// Allocates and asserts feasibility in one step — the parameterized
    /// scaffolding shared by the per-policy unit tests below.
    fn allocate_checked(policy: BudgetPolicy, budget: &PumpBudget, gradients: &[f64]) -> Vec<f64> {
        let alloc = allocate(policy, budget, gradients).unwrap();
        assert_allocation_feasible(budget, &alloc);
        alloc
    }

    #[test]
    fn budget_validation() {
        assert!(budget3().validate(3).is_ok());
        assert!(budget3().validate(0).is_err());
        // 3-stack budget cannot feed 10 stacks at the valve minimum…
        assert!(budget3().validate(10).is_err());
        // …nor can 1 stack absorb it under the valve maximum.
        assert!(budget3().validate(1).is_err());
        let mut b = budget3();
        b.min_scale = -1.0;
        assert!(b.validate(3).is_err());
        let mut b = budget3();
        b.max_scale = 0.1;
        assert!(b.validate(3).is_err());
        let mut b = budget3();
        b.total_scale = f64::NAN;
        assert!(b.validate(3).is_err());
    }

    #[test]
    fn band_violations_are_typed_and_clampable() {
        // Band violations carry the budget; malformed bounds stay generic.
        let mut b = budget3();
        b.total_scale = 0.9; // below 3 × 0.5
        match b.validate_at(3, Some(7)) {
            Err(CoreError::BudgetInfeasible {
                total_scale,
                n_stacks,
                segment,
                ..
            }) => {
                assert_eq!(total_scale, 0.9);
                assert_eq!(n_stacks, 3);
                assert_eq!(segment, Some(7));
            }
            other => panic!("expected BudgetInfeasible, got {other:?}"),
        }
        // The relaxed band admits the decayed total without rewriting it —
        // the pump delivers what it delivers.
        let clamped = b.clamped_feasible(3);
        assert_eq!(clamped.total_scale, 0.9);
        assert_eq!(clamped.min_scale, 0.3);
        assert_eq!(clamped.max_scale, b.max_scale);
        assert!(clamped.validate(3).is_ok());
        // Over the top of the band, the ceiling lifts instead.
        b.total_scale = 9.0;
        let lifted = b.clamped_feasible(3);
        assert_eq!(lifted.total_scale, 9.0);
        assert_eq!(lifted.min_scale, b.min_scale);
        assert_eq!(lifted.max_scale, 3.0);
        assert!(lifted.validate(3).is_ok());
        let mut bad = budget3();
        bad.min_scale = f64::NAN;
        assert!(matches!(
            bad.validate(3),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn uniform_splits_evenly() {
        let alloc = allocate_checked(BudgetPolicy::Uniform, &budget3(), &[5.0, 1.0, 0.0]);
        assert_eq!(alloc, vec![1.0; 3]);
    }

    #[test]
    fn waterfill_favors_the_hot_stack_and_conserves() {
        let alloc = allocate_checked(
            BudgetPolicy::GradientWaterfill,
            &budget3(),
            &[10.0, 8.0, 6.0],
        );
        assert!(alloc[0] > alloc[1] && alloc[1] > alloc[2], "{alloc:?}");
    }

    #[test]
    fn waterfill_caps_at_the_valve_and_repours() {
        let b = budget3();
        // One overwhelming stack: it pins at max_scale, the rest split the
        // remainder in proportion.
        let alloc = allocate_checked(BudgetPolicy::GradientWaterfill, &b, &[1e6, 1.0, 1.0]);
        assert!((alloc[0] - b.max_scale).abs() < 1e-12, "{alloc:?}");
        assert!((alloc[1] - alloc[2]).abs() < 1e-12);
    }

    #[test]
    fn waterfill_spills_to_idle_stacks_when_needed() {
        // Both loaded stacks saturate at max (2 × 1.5); one unit of budget
        // is still unspent and must land on the idle stacks even though
        // they measured nothing.
        let b = PumpBudget {
            total_scale: 5.0,
            min_scale: 0.5,
            max_scale: 1.5,
        };
        let alloc = allocate_checked(BudgetPolicy::GradientWaterfill, &b, &[9.0, 9.0, 0.0, 0.0]);
        assert!((alloc[0] - b.max_scale).abs() < 1e-12);
        assert!((alloc[1] - b.max_scale).abs() < 1e-12);
        assert!(
            alloc[2] > b.min_scale && alloc[3] > b.min_scale,
            "{alloc:?}"
        );
    }

    #[test]
    fn waterfill_with_no_measurements_is_uniform() {
        let alloc = allocate_checked(BudgetPolicy::GradientWaterfill, &budget3(), &[0.0; 3]);
        assert_eq!(alloc, vec![1.0; 3]);
        // Negative (unphysical) measurements clamp to zero.
        let alloc = allocate_checked(BudgetPolicy::GradientWaterfill, &budget3(), &[-3.0; 3]);
        assert_eq!(alloc, vec![1.0; 3]);
    }

    #[test]
    fn non_finite_gradients_are_rejected() {
        assert!(allocate(
            BudgetPolicy::GradientWaterfill,
            &budget3(),
            &[1.0, f64::NAN, 0.0]
        )
        .is_err());
        assert!(allocate(
            BudgetPolicy::Uniform,
            &budget3(),
            &[f64::INFINITY, 0.0, 0.0]
        )
        .is_err());
        assert!(allocate(BudgetPolicy::Predictive, &budget3(), &[f64::NAN, 0.0, 0.0]).is_err());
    }

    #[test]
    fn predictive_without_context_is_waterfill_bitwise() {
        let b = budget3();
        let g = [10.0, 3.0, 0.5];
        let reactive = allocate(BudgetPolicy::GradientWaterfill, &b, &g).unwrap();
        let predictive = allocate(BudgetPolicy::Predictive, &b, &g).unwrap();
        assert_eq!(
            predictive, reactive,
            "no-context degradation must be bitwise"
        );
    }

    #[test]
    fn predictive_with_uninformative_context_is_waterfill_bitwise() {
        let b = budget3();
        let g = [10.0, 3.0, 0.5];
        let reactive = allocate(BudgetPolicy::GradientWaterfill, &b, &g).unwrap();
        // Flat surrogate + no forecast.
        let flat = SurrogateModel::new(3);
        let ctx = PredictiveContext {
            last_shares: &[1.0, 1.0, 1.0],
            forecast_ratio: None,
            surrogate: &flat,
        };
        let predictive = allocate_with(BudgetPolicy::Predictive, &b, &g, Some(&ctx)).unwrap();
        assert_eq!(predictive, reactive);
        // A forecast of exactly "no change" (all ratios 1.0) is equally
        // uninformative and takes the same structural early-return.
        let ctx = PredictiveContext {
            last_shares: &[1.0, 1.0, 1.0],
            forecast_ratio: Some(&[1.0, 1.0, 1.0]),
            surrogate: &flat,
        };
        let predictive = allocate_with(BudgetPolicy::Predictive, &b, &g, Some(&ctx)).unwrap();
        assert_eq!(predictive, reactive);
    }

    #[test]
    fn predictive_forecast_steers_toward_the_upcoming_hot_stack() {
        // Trailing gradients tie, but stack 2's power is about to double
        // while stack 0's halves: the forecast must shift flow to stack 2.
        let b = budget3();
        let g = [5.0, 5.0, 5.0];
        let flat = SurrogateModel::new(3);
        let ctx = PredictiveContext {
            last_shares: &[1.0, 1.0, 1.0],
            forecast_ratio: Some(&[0.5, 1.0, 2.0]),
            surrogate: &flat,
        };
        let alloc = allocate_with(BudgetPolicy::Predictive, &b, &g, Some(&ctx)).unwrap();
        assert_allocation_feasible(&b, &alloc);
        assert!(alloc[2] > alloc[1] && alloc[1] > alloc[0], "{alloc:?}");
        let reactive = allocate(BudgetPolicy::GradientWaterfill, &b, &g).unwrap();
        assert_ne!(alloc, reactive);
    }

    #[test]
    fn predictive_sanitizes_adversarial_ratios_and_slopes() {
        let b = budget3();
        let g = [5.0, 5.0, 5.0];
        // NaN/negative/infinite ratios count as 1.0; a hand-built surrogate
        // with non-finite and absurd slopes is re-clamped. The allocation
        // must still be finite and feasible.
        let surrogate = SurrogateModel::from_stacks(vec![
            StackSurrogate {
                slope_k_per_scale: f64::NAN,
                last_share: 1.0,
                last_gradient_k: 5.0,
                observed: true,
            },
            StackSurrogate {
                slope_k_per_scale: -1e300,
                last_share: 1.0,
                last_gradient_k: 5.0,
                observed: true,
            },
            StackSurrogate {
                slope_k_per_scale: 1e300,
                last_share: 1.0,
                last_gradient_k: 5.0,
                observed: true,
            },
        ]);
        let ctx = PredictiveContext {
            last_shares: &[f64::NAN, 1.0, 1.0],
            forecast_ratio: Some(&[f64::NAN, -3.0, f64::INFINITY]),
            surrogate: &surrogate,
        };
        let alloc = allocate_with(BudgetPolicy::Predictive, &b, &g, Some(&ctx)).unwrap();
        assert_allocation_feasible(&b, &alloc);
        assert!(alloc.iter().all(|a| a.is_finite()), "{alloc:?}");
    }

    #[test]
    fn predictive_handles_short_context_slices() {
        // Context slices shorter or longer than the fleet must not panic:
        // missing entries are padded with "no information".
        let b = budget3();
        let g = [5.0, 2.0, 1.0];
        let surrogate = SurrogateModel::new(1);
        let ctx = PredictiveContext {
            last_shares: &[1.0],
            forecast_ratio: Some(&[2.0]),
            surrogate: &surrogate,
        };
        let alloc = allocate_with(BudgetPolicy::Predictive, &b, &g, Some(&ctx)).unwrap();
        assert_allocation_feasible(&b, &alloc);
    }

    #[test]
    fn surrogate_refits_recursively_and_skips_degenerate_history() {
        let mut s = StackSurrogate::default();
        // First observation only seeds the base point.
        assert!(!s.observe(1.0, 10.0));
        assert_eq!(s.slope_k_per_scale, 0.0);
        // A real move refits: slope = (6 - 10) / (1.5 - 1.0) = -8.
        assert!(s.observe(1.5, 6.0));
        assert!((s.slope_k_per_scale - (-8.0)).abs() < 1e-12);
        // Degenerate (constant-share) history: same share again, any
        // gradient — no refit, no panic, slope untouched.
        assert!(!s.observe(1.5, 6.0));
        assert!(!s.observe(1.5, 123.0));
        assert!((s.slope_k_per_scale - (-8.0)).abs() < 1e-12);
        // Exponential forgetting: next sample (-4) blends half-and-half.
        assert!(s.observe(2.0, 121.0)); // (121 - 123) / 0.5 = -4
        assert!((s.slope_k_per_scale - (-6.0)).abs() < 1e-12);
        // Non-finite observations are skipped wholesale.
        assert!(!s.observe(f64::NAN, 1.0));
        assert!(!s.observe(1.0, f64::INFINITY));
        assert!((s.slope_k_per_scale - (-6.0)).abs() < 1e-12);
    }

    #[test]
    fn surrogate_model_tracks_refits_and_flatness() {
        let mut m = SurrogateModel::new(2);
        assert!(m.is_flat());
        assert_eq!(m.refits(), 0);
        m.observe(&[1.0, 1.0], &[10.0, 4.0]);
        assert_eq!(m.refits(), 0); // seeding only
        m.observe(&[1.2, 0.8], &[8.0, 5.0]);
        assert_eq!(m.refits(), 2);
        assert!(!m.is_flat());
        assert!(m.mean_abs_slope_k_per_scale() > 0.0);
        // A constant-gradient, constant-share history never panics and
        // never counts as a refit.
        let mut flat = SurrogateModel::new(2);
        for _ in 0..10 {
            flat.observe(&[1.0, 1.0], &[3.0, 3.0]);
        }
        assert_eq!(flat.refits(), 0);
        assert!(flat.is_flat());
    }

    #[test]
    fn forecast_informative_threshold() {
        assert!(!forecast_is_informative(&[1.0, 1.0]));
        assert!(!forecast_is_informative(&[]));
        // Non-finite and negative ratios sanitize to 1.0 — uninformative.
        assert!(!forecast_is_informative(&[f64::NAN, -2.0, f64::INFINITY]));
        assert!(forecast_is_informative(&[1.0, 1.5]));
    }
}
