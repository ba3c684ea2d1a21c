//! Two-phase bounded-variable revised simplex.
//!
//! The solver works on the [`StandardForm`] `min c'x, Ax = b, l ≤ x ≤ u`
//! (one slack per row). A starting basis is built from slacks; rows
//! whose slack cannot absorb the residual receive an artificial column,
//! and phase 1 minimizes the sum of artificials. Pricing is devex
//! (reference weights plus a candidate list) with an automatic switch
//! to Bland's rule after a stall (anti-cycling); the basis inverse is
//! maintained as sparse LU + eta file with periodic refactorization.
//!
//! One primal loop (`Core::optimize`) runs on one set of kernels. The
//! kernel route — sparse at [`SPARSE_MIN_ROWS`] rows and above, dense
//! below, or forced by [`SimplexOptions::sparse`] — only picks the
//! loop's policies: how duals and the objective are kept, how wide a
//! pricing refresh scans, when the basis is refactorized, whether
//! FTRAN/BTRAN sweep flat or follow the vector's pattern, and which
//! devex weight update runs.
//!
//! Every solve starts cold: [`solve`] is a deterministic function of the
//! problem and the options, so the answer never depends on what was
//! solved before. The O-UMP's all-ones objective makes its optimum
//! almost always non-unique, and a solve seeded from an earlier basis
//! could land on a different optimal vertex (hence different floored
//! counts) than the cold solve of the same problem.

mod pricing;
mod ratio;

use crate::error::LpError;
use crate::factor::lu::LuScratch;
use crate::factor::BasisFactor;
use crate::problem::{Problem, Sense};
use crate::scaling::{self, ScaleFactors};
use crate::sparse::{CscMatrix, CsrMatrix, SparseVec};
use crate::standard::StandardForm;
pub(crate) use pricing::{price_bland, Devex, Direction, SECTOR_LEN};
pub(crate) use ratio::{ratio_test, RatioOutcome};

/// Row count at and above which solves take the sparse kernel route
/// (pattern-driven FTRAN/BTRAN, sector partial pricing, incremental
/// duals) unless [`SimplexOptions::sparse`] overrides the choice. Below
/// it the dense route runs (flat FTRAN/BTRAN sweeps, full pricing
/// scans, exact duals every iteration): same loop and kernels, cheaper
/// bookkeeping on small instances.
pub const SPARSE_MIN_ROWS: usize = 512;

/// Dense-route refactorization cadence: refactorize the basis after
/// this many eta updates.
const REFACTOR_EVERY: usize = 64;

/// Sparse-route refactorization cadence. Sparse solves recompute the
/// dense dual vector and the incremental objective only at
/// refactorizations, so the dense route's cadence of 64 would erase
/// the route's advantage; 128 keeps the eta file short while
/// amortizing the dense recomputations.
///
/// The cadence is only half the trigger: every BTRAN gathers over every
/// stored eta nonzero, so once spikes densify (large instances couple
/// users through shared pairs) a fixed update count lets per-iteration
/// cost grow without bound. [`Core::refactor_due`] therefore also
/// refactors when the eta fill outgrows the LU fill.
const SPARSE_REFACTOR_EVERY: usize = 128;

/// Primal feasibility tolerance. Phase 1 declares infeasibility only
/// above `max(TOL_PRIMAL, 1e-7)` of leftover artificial mass.
const TOL_PRIMAL: f64 = 1e-8;

/// Dual (reduced-cost) tolerance.
pub(crate) const TOL_DUAL: f64 = 1e-9;

/// Minimum pivot magnitude considered in the ratio test.
pub(crate) const TOL_PIVOT: f64 = 1e-9;

/// Iterations without objective improvement before switching to
/// Bland's anti-cycling rule.
const STALL_LIMIT: usize = 2_000;

/// What a caller may set per solve: the iteration cap and the kernel
/// route. Every tolerance and cadence is a constant of this module, and
/// every solve runs on a geometric-mean-scaled copy of the problem.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard iteration cap across both phases.
    pub max_iter: usize,
    /// Kernel route override: `Some(true)` forces the sparse route,
    /// `Some(false)` forces the dense route, `None` (the default)
    /// selects by problem size — sparse at [`SPARSE_MIN_ROWS`] rows and
    /// above, dense below. Either way the same primal loop runs; the
    /// route picks its policies, never its arithmetic kernels. The
    /// route-agreement cross-checks force it.
    pub sparse: Option<bool>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions { max_iter: 200_000, sparse: None }
    }
}

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration cap was hit before termination.
    IterationLimit,
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Terminal status.
    pub status: SolveStatus,
    /// Objective value in the user's sense (meaningful for `Optimal`).
    pub objective: f64,
    /// Structural variable values (meaningful for `Optimal`).
    pub x: Vec<f64>,
    /// Row duals in the user's sense (meaningful for `Optimal`).
    pub duals: Vec<f64>,
    /// Simplex iterations used across both phases.
    pub iterations: usize,
    /// Basis factorizations performed (the initial one plus every
    /// refactorization).
    pub refactorizations: usize,
    /// The solve ran on the sparse kernel route (pattern-driven solves,
    /// partial pricing) rather than the dense route.
    pub sparse: bool,
}

/// Variable status in the simplex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    /// Basic in the given row position.
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable parked at zero.
    Free,
}

/// Solve an LP (ignores integrality marks; see [`crate::mip`] for those).
pub fn solve(problem: &Problem, opts: &SimplexOptions) -> Result<Solution, LpError> {
    // trivial case: no rows — every variable goes to its objective-best bound
    if problem.n_rows() == 0 {
        return solve_unconstrained(problem);
    }
    let factors = scaling::geometric_scaling(problem, 2);
    let scaled = scaling::apply(problem, &factors);
    let mut core = Core::new(StandardForm::from_problem(&scaled), opts);
    let status = core.run()?;
    Ok(finish(&core, status, problem, &factors))
}

/// Unscale, clamp, and package a finished core into user-space terms.
fn finish(core: &Core, status: SolveStatus, problem: &Problem, factors: &ScaleFactors) -> Solution {
    let mut x = factors.unscale_x(&core.structural_x());
    let mut duals = factors.unscale_duals(&core.row_duals());
    if problem.sense() == Sense::Maximize {
        for d in &mut duals {
            *d = -*d;
        }
    }
    // clean tiny negative noise on bounded variables
    for (xj, b) in x.iter_mut().zip(problem.col_bounds()) {
        if xj.is_finite() {
            *xj = xj.clamp(b.lower, b.upper);
        }
    }
    let objective = problem.objective_value(&x);
    Solution {
        status,
        objective,
        x,
        duals,
        iterations: core.iterations,
        refactorizations: core.refactor_count,
        sparse: core.sparse,
    }
}

fn solve_unconstrained(problem: &Problem) -> Result<Solution, LpError> {
    let maximize = problem.sense() == Sense::Maximize;
    let mut x = Vec::with_capacity(problem.n_cols());
    for (j, b) in problem.col_bounds().iter().enumerate() {
        let c = problem.objective()[j] * if maximize { -1.0 } else { 1.0 };
        let v = if c > 0.0 {
            b.lower
        } else if c < 0.0 {
            b.upper
        } else if b.lower.is_finite() {
            b.lower
        } else if b.upper.is_finite() {
            b.upper
        } else {
            0.0
        };
        if !v.is_finite() {
            return Ok(Solution {
                status: SolveStatus::Unbounded,
                objective: if maximize { f64::INFINITY } else { f64::NEG_INFINITY },
                x: vec![],
                duals: vec![],
                iterations: 0,
                refactorizations: 0,
                sparse: false,
            });
        }
        x.push(v);
    }
    let objective = problem.objective_value(&x);
    Ok(Solution {
        status: SolveStatus::Optimal,
        objective,
        x,
        duals: vec![],
        iterations: 0,
        refactorizations: 0,
        sparse: false,
    })
}

/// Internal solver state over the standard form plus artificials.
pub(crate) struct Core {
    sf: StandardForm,
    /// Hard iteration cap across both phases.
    max_iter: usize,
    /// Working matrix: standard-form columns plus artificial columns.
    a: CscMatrix,
    /// Total working columns (n + artificials).
    n_total: usize,
    /// Phase-1 cost (1 on artificials).
    phase1_cost: Vec<f64>,
    /// Bounds over working columns.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    x_val: Vec<f64>,
    basis: Vec<usize>,
    factor: BasisFactor,
    iterations: usize,
    /// Basis factorizations performed (initial factor + refactors).
    refactor_count: usize,
    n_artificial: usize,
    /// Whether this core runs on the sparse kernel route.
    sparse: bool,
    /// CSR mirror of `a`, built lazily on the sparse route for the
    /// row-oriented devex updates.
    csr: Option<CsrMatrix>,
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl Core {
    fn new(sf: StandardForm, opts: &SimplexOptions) -> Core {
        let m = sf.m;
        let n = sf.n;

        let mut lower = sf.lower.clone();
        let mut upper = sf.upper.clone();
        let mut status = Vec::with_capacity(n);
        let mut x_val = Vec::with_capacity(n);
        for j in 0..n {
            let v = sf.nonbasic_start(j);
            x_val.push(v);
            status.push(if sf.lower[j].is_finite() && v == sf.lower[j] {
                VarStatus::AtLower
            } else if sf.upper[j].is_finite() && v == sf.upper[j] {
                VarStatus::AtUpper
            } else {
                VarStatus::Free
            });
        }

        // residual r = b - A x_N over all standard-form columns
        let mut residual = sf.b.clone();
        for (j, &xv) in x_val.iter().enumerate().take(n) {
            if xv != 0.0 {
                sf.a.col_axpy(j, -xv, &mut residual);
            }
        }

        // choose initial basis per row: the row's slack if it can absorb
        // the residual, otherwise an artificial column
        let mut basis = Vec::with_capacity(m);
        let mut art_cols: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut phase1_cost = vec![0.0; n];
        for (i, &res) in residual.iter().enumerate() {
            let slack = sf.n_structural + i;
            let target = x_val[slack] + res;
            if target >= sf.lower[slack] - 1e-12 && target <= sf.upper[slack] + 1e-12 {
                // slack absorbs the residual: make it basic
                x_val[slack] = target;
                status[slack] = VarStatus::Basic(i);
                basis.push(slack);
            } else {
                // park the slack at its nearest bound, add artificial
                let clamped = target.clamp(sf.lower[slack], sf.upper[slack]);
                let remaining = target - clamped; // what the artificial must carry
                x_val[slack] = clamped;
                status[slack] = if clamped == sf.lower[slack] {
                    VarStatus::AtLower
                } else {
                    VarStatus::AtUpper
                };
                let sign = if remaining >= 0.0 { 1.0 } else { -1.0 };
                let art = n + art_cols.len();
                art_cols.push(vec![(i, sign)]);
                basis.push(art);
                lower.push(0.0);
                upper.push(f64::INFINITY);
                status.push(VarStatus::Basic(i));
                x_val.push(remaining.abs());
                phase1_cost.push(1.0);
            }
        }
        let n_artificial = art_cols.len();
        let a = sf.a.with_extra_cols(&art_cols);
        let n_total = n + n_artificial;

        let sparse = opts.sparse.unwrap_or(m >= SPARSE_MIN_ROWS);
        let t0 = std::time::Instant::now();
        let factor = BasisFactor::factor(&a, &basis)
            .expect("initial slack/artificial basis is triangular and nonsingular");
        if sparse {
            crate::obs::record_factorization(t0.elapsed().as_secs_f64(), factor.lu_nnz());
        }

        Core {
            sf,
            max_iter: opts.max_iter,
            a,
            n_total,
            phase1_cost,
            lower,
            upper,
            status,
            x_val,
            basis,
            factor,
            iterations: 0,
            refactor_count: 1,
            n_artificial,
            sparse,
            csr: None,
        }
    }

    fn run(&mut self) -> Result<SolveStatus, LpError> {
        if self.n_artificial > 0 {
            let cost = self.phase1_cost.clone();
            match self.optimize(&cost)? {
                PhaseOutcome::IterationLimit => return Ok(SolveStatus::IterationLimit),
                PhaseOutcome::Unbounded => {
                    unreachable!("phase-1 objective is bounded below by zero")
                }
                PhaseOutcome::Optimal => {}
            }
            let infeas: f64 = (self.sf.n..self.n_total).map(|j| self.x_val[j].max(0.0)).sum();
            if infeas > TOL_PRIMAL.max(1e-7) {
                return Ok(SolveStatus::Infeasible);
            }
            // fix artificials at zero for phase 2
            for j in self.sf.n..self.n_total {
                self.upper[j] = 0.0;
                self.x_val[j] = self.x_val[j].max(0.0).min(self.upper[j]).max(0.0);
                if !matches!(self.status[j], VarStatus::Basic(_)) {
                    self.status[j] = VarStatus::AtLower;
                    self.x_val[j] = 0.0;
                }
            }
        }

        let mut cost = vec![0.0; self.n_total];
        cost[..self.sf.n].copy_from_slice(&self.sf.c);
        match self.optimize(&cost)? {
            PhaseOutcome::Optimal => Ok(SolveStatus::Optimal),
            PhaseOutcome::Unbounded => Ok(SolveStatus::Unbounded),
            PhaseOutcome::IterationLimit => Ok(SolveStatus::IterationLimit),
        }
    }

    /// Primal simplex loop on the given (minimization) cost: devex
    /// pricing, Harris ratio test, Bland's rule after a stall. The two
    /// kernel routes share every kernel and differ only in policy:
    ///
    /// * duals and objective: the dense route keeps both exact, recomputing
    ///   the duals after every pivot and the objective after every step;
    ///   the sparse route updates them incrementally
    ///   (`y += (d_q/α_q)·ρ` after each pivot, the objective from the
    ///   step's reduced cost) and recomputes them only at
    ///   refactorizations, so it *confirms* optimality against freshly
    ///   recomputed duals before declaring it;
    /// * pricing refresh: a full scan of every column on the dense route,
    ///   rotating `SECTOR_LEN`-column sectors on the sparse route (see
    ///   [`Devex::price`]);
    /// * refactorization: see [`Core::refactor_due`];
    /// * FTRAN/BTRAN: flat sweeps over the [`SparseVec`] storage on the
    ///   dense route, pattern-driven solves on the sparse route;
    /// * devex weights: [`Devex::update`] on the dense route,
    ///   [`Devex::update_sparse`] over the CSR mirror on the sparse route.
    fn optimize(&mut self, cost: &[f64]) -> Result<PhaseOutcome, LpError> {
        let m = self.sf.m;
        if self.sparse {
            self.ensure_csr();
        }
        let mut stall = 0usize;
        let mut bland = false;
        let mut best_obj = f64::INFINITY;
        let sector_len = if self.sparse { SECTOR_LEN } else { self.n_total };
        let mut devex = Devex::new(self.n_total, sector_len);

        // per-solve workspaces (no per-iteration allocation)
        let mut w = SparseVec::new(m);
        let mut rho = SparseVec::new(m);
        let mut alpha_acc = SparseVec::new(self.n_total);
        let mut ws = LuScratch::new(m);
        // When the basis couples enough rows that FTRAN results stop
        // being hypersparse, the pattern-driven solve's graph traversal
        // costs more than a flat sweep over the same factors (the
        // arithmetic — and hence the result — is identical either way).
        // The sparse route latches on the previous result's density; the
        // dense route always sweeps.
        let mut w_flat = !self.sparse;

        let mut y = self.compute_duals(cost);
        let mut y_fresh = true;
        let mut obj = self.objective_of(cost);

        loop {
            if self.iterations >= self.max_iter {
                return Ok(PhaseOutcome::IterationLimit);
            }
            if self.refactor_due() {
                self.refactorize()?;
                y = self.compute_duals(cost);
                y_fresh = true;
                obj = self.objective_of(cost);
            }

            let pick = if bland {
                // Bland's rule needs exact reduced costs: keep y fresh
                if !y_fresh {
                    y = self.compute_duals(cost);
                    y_fresh = true;
                }
                price_bland(self, cost, &y)
                    .map(|(q, dir)| (q, dir, cost[q] - self.a.col_dot(q, &y)))
            } else {
                devex.price(self, cost, &y)
            };
            let Some((q, dir, d_q)) = pick else {
                if y_fresh {
                    return Ok(PhaseOutcome::Optimal);
                }
                // the incremental duals say optimal; confirm against
                // exactly recomputed duals before declaring it
                y = self.compute_duals(cost);
                y_fresh = true;
                continue;
            };

            // direction: w = B^-1 A_q
            w.clear();
            {
                let (rows, vals) = self.a.col(q);
                for (&r, &v) in rows.iter().zip(vals) {
                    w.add(r, v);
                }
            }
            if w_flat {
                self.factor.ftran(&mut w.values);
                w.rescan_pattern();
            } else {
                self.factor.ftran_sparse(&mut w, &mut ws);
                w.sort_pattern();
            }
            w_flat = !self.sparse || w.pattern.len() * 4 > m;

            match ratio_test(self, q, dir, &w) {
                RatioOutcome::Unbounded => return Ok(PhaseOutcome::Unbounded),
                RatioOutcome::BoundFlip { t } => {
                    self.apply_step(q, dir, t, &w);
                    self.status[q] = match self.status[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                    // a flip changes neither basis nor duals
                    obj += d_q * dir.sign() * t;
                }
                RatioOutcome::Pivot { t, leaving_pos, to_upper } => {
                    self.apply_step(q, dir, t, &w);
                    obj += d_q * dir.sign() * t;
                    let alpha_q = w.values[leaving_pos];
                    // pivot row of the outgoing basis: the devex update
                    // and the sparse route's dual update need it before
                    // the basis and factorization change underneath
                    if self.sparse || !bland {
                        rho.clear();
                        rho.set(leaving_pos, 1.0);
                        if self.sparse {
                            self.factor.btran_sparse(&mut rho, &mut ws);
                            rho.sort_pattern();
                        } else {
                            self.factor.btran(&mut rho.values);
                            rho.rescan_pattern();
                        }
                    }
                    if bland {
                        // Bland's rule keeps no devex weights
                    } else if self.sparse {
                        devex.update_sparse(self, q, leaving_pos, alpha_q, &rho, &mut alpha_acc);
                    } else {
                        devex.update(self, q, leaving_pos, alpha_q, &rho.values);
                    }
                    let leaving = self.basis[leaving_pos];
                    // snap the leaving variable exactly onto its bound
                    self.x_val[leaving] =
                        if to_upper { self.upper[leaving] } else { self.lower[leaving] };
                    self.status[leaving] =
                        if to_upper { VarStatus::AtUpper } else { VarStatus::AtLower };
                    self.basis[leaving_pos] = q;
                    self.status[q] = VarStatus::Basic(leaving_pos);
                    let refactored = self.factor.update_sparse(leaving_pos, &mut w).is_err();
                    if refactored {
                        // pivot too small for the eta update: refactor
                        // with the new basis instead
                        self.refactorize()?;
                        obj = self.objective_of(cost);
                    }
                    if self.sparse && !refactored && alpha_q.abs() > 1e-12 {
                        // y += (d_q/α_q)·ρ zeroes the entering column's
                        // reduced cost against the new basis
                        let theta = d_q / alpha_q;
                        for &i in &rho.pattern {
                            y[i] += theta * rho.values[i];
                        }
                        y_fresh = false;
                    } else if self.refactor_due() {
                        // the refactorization at the top of the next
                        // iteration recomputes the duals before anything
                        // reads them (the iteration-limit exit reads none)
                        y_fresh = false;
                    } else {
                        y = self.compute_duals(cost);
                        y_fresh = true;
                    }
                }
            }

            self.iterations += 1;
            if !self.sparse {
                obj = self.objective_of(cost);
            }

            // stall detection for the Bland switch
            if obj < best_obj - 1e-10 {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    bland = true;
                }
            }
        }
    }

    /// Whether to refactorize now. The dense route refactors every
    /// [`REFACTOR_EVERY`] eta updates. The sparse route refactors when
    /// its longer cadence is spent or when the accumulated eta fill has
    /// outgrown the LU factors. The second trigger is what keeps
    /// per-iteration cost bounded at scale — each BTRAN gathers over
    /// every stored eta nonzero, and on instances whose basis couples
    /// many rows the spikes densify long before the cadence would fire.
    fn refactor_due(&self) -> bool {
        if !self.sparse {
            return self.factor.n_updates() >= REFACTOR_EVERY;
        }
        self.factor.n_updates() >= SPARSE_REFACTOR_EVERY
            || self.factor.eta_nnz() > 2 * (self.factor.lu_nnz() + self.sf.m)
    }

    /// Build the CSR mirror of the working matrix if not yet present.
    fn ensure_csr(&mut self) {
        if self.csr.is_none() {
            self.csr = Some(CsrMatrix::from_csc(&self.a));
        }
    }

    /// Duals `y = B⁻ᵀ c_B` through the current factorization.
    fn compute_duals(&self, cost: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.sf.m];
        for (i, &bcol) in self.basis.iter().enumerate() {
            y[i] = cost[bcol];
        }
        self.factor.btran(&mut y);
        y
    }

    /// Move entering variable `q` by `t` in direction `dir` and update
    /// the basic values: only the rows in `w`'s pattern hold basic
    /// variables that move.
    fn apply_step(&mut self, q: usize, dir: Direction, t: f64, w: &SparseVec) {
        if t == 0.0 {
            return;
        }
        let step = dir.sign() * t;
        self.x_val[q] += step;
        for &i in &w.pattern {
            let wi = w.values[i];
            if wi != 0.0 {
                let col = self.basis[i];
                self.x_val[col] -= step * wi;
            }
        }
    }

    fn objective_of(&self, cost: &[f64]) -> f64 {
        cost.iter().zip(&self.x_val).map(|(&c, &x)| c * x).sum()
    }

    /// Rebuild the LU factorization from the current basis and recompute
    /// basic values from scratch (numerical hygiene).
    fn refactorize(&mut self) -> Result<(), LpError> {
        let t0 = std::time::Instant::now();
        self.factor = BasisFactor::factor(&self.a, &self.basis)?;
        if self.sparse {
            crate::obs::record_factorization(t0.elapsed().as_secs_f64(), self.factor.lu_nnz());
        }
        self.refactor_count += 1;
        self.recompute_basic_values();
        Ok(())
    }

    /// Recompute `x_B = B^-1 (b - N x_N)` from the current statuses and
    /// nonbasic values through the current factorization.
    fn recompute_basic_values(&mut self) {
        let mut rhs = self.sf.b.clone();
        for j in 0..self.n_total {
            if matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            if self.x_val[j] != 0.0 {
                self.a.col_axpy(j, -self.x_val[j], &mut rhs);
            }
        }
        self.factor.ftran(&mut rhs);
        for (i, &col) in self.basis.iter().enumerate() {
            self.x_val[col] = rhs[i];
        }
    }

    /// Structural part of the current point.
    fn structural_x(&self) -> Vec<f64> {
        self.x_val[..self.sf.n_structural].to_vec()
    }

    /// Row duals for the phase-2 objective (internal minimization sense).
    fn row_duals(&self) -> Vec<f64> {
        let m = self.sf.m;
        let mut cost = vec![0.0; self.n_total];
        cost[..self.sf.n].copy_from_slice(&self.sf.c);
        let mut y = vec![0.0; m];
        for (i, &bcol) in self.basis.iter().enumerate() {
            y[i] = cost[bcol];
        }
        self.factor.btran(&mut y);
        // note: these are duals of the *internal minimization*; the
        // driver flips signs for maximization problems.
        y
    }

    // accessors used by pricing/ratio submodules
    pub(crate) fn n_total(&self) -> usize {
        self.n_total
    }
    pub(crate) fn n_rows_m(&self) -> usize {
        self.sf.m
    }
    pub(crate) fn status_of(&self, j: usize) -> VarStatus {
        self.status[j]
    }
    pub(crate) fn bounds_of(&self, j: usize) -> (f64, f64) {
        (self.lower[j], self.upper[j])
    }
    pub(crate) fn value_of(&self, j: usize) -> f64 {
        self.x_val[j]
    }
    pub(crate) fn basis_col(&self, pos: usize) -> usize {
        self.basis[pos]
    }
    pub(crate) fn matrix(&self) -> &CscMatrix {
        &self.a
    }
    /// Row-major mirror of the matrix; present only after the sparse
    /// route has called [`Core::ensure_csr`].
    pub(crate) fn csr(&self) -> Option<&CsrMatrix> {
        self.csr.as_ref()
    }
}

#[cfg(test)]
mod tests;
