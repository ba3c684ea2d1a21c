//! Entering-variable selection (pricing).
//!
//! The workhorse is **devex pricing** (Forrest–Goldfarb): each column
//! carries a reference weight approximating `‖B⁻¹ A_j‖²` over the
//! current reference framework, and the entering column maximizes
//! `d_j² / w_j` — steepest-edge-like behaviour at a fraction of the
//! cost. A small candidate list amortizes the full pricing scan across
//! iterations. Bland's rule (smallest eligible index) remains as the
//! anti-cycling fallback the driver switches to after a stall.

use super::{Core, VarStatus, TOL_DUAL};
use crate::sparse::SparseVec;

/// Which way the entering variable moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Increase from its lower bound (or from zero for free variables).
    Up,
    /// Decrease from its upper bound.
    Down,
}

impl Direction {
    /// `+1.0` for [`Direction::Up`], `-1.0` for [`Direction::Down`].
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Up => 1.0,
            Direction::Down => -1.0,
        }
    }
}

/// Eligibility of column `j` given its reduced cost `d` (minimization).
fn eligible(core: &Core, j: usize, d: f64) -> Option<Direction> {
    let (lo, hi) = core.bounds_of(j);
    if hi - lo <= 0.0 {
        return None; // fixed variable can never move
    }
    let tol = TOL_DUAL;
    match core.status_of(j) {
        VarStatus::Basic(_) => None,
        VarStatus::AtLower => (d < -tol).then_some(Direction::Up),
        VarStatus::AtUpper => (d > tol).then_some(Direction::Down),
        VarStatus::Free => {
            if d < -tol {
                Some(Direction::Up)
            } else if d > tol {
                Some(Direction::Down)
            } else {
                None
            }
        }
    }
}

/// Reduced cost of column `j`: `d_j = c_j − y' A_j`.
#[inline]
fn reduced_cost(core: &Core, cost: &[f64], y: &[f64], j: usize) -> f64 {
    cost[j] - core.matrix().col_dot(j, y)
}

/// Bland rule: eligible column with the smallest index.
pub(crate) fn price_bland(core: &Core, cost: &[f64], y: &[f64]) -> Option<(usize, Direction)> {
    for j in 0..core.n_total() {
        if matches!(core.status_of(j), VarStatus::Basic(_)) {
            continue;
        }
        let d = reduced_cost(core, cost, y, j);
        if let Some(dir) = eligible(core, j, d) {
            return Some((j, dir));
        }
    }
    None
}

/// Shortlist size kept after a full pricing scan. Big enough that grid
/// LPs (hundreds to low thousands of columns) rarely exhaust it between
/// refreshes, small enough that partial scans stay cheap.
const CANDIDATE_LIST_LEN: usize = 32;

/// Partial-pricing scans allowed before the next mandatory full scan.
/// Bounds how stale the shortlist's *selection pool* can get (reduced
/// costs themselves are recomputed fresh every call).
const PARTIAL_SCANS: usize = 12;

/// Weight magnitude that triggers a reference-framework reset. Devex
/// weights only ever grow between resets; past this they stop
/// discriminating and risk overflow-ish scores.
const WEIGHT_RESET: f64 = 1e8;

/// Columns priced per sector on the sparse route's partial scan. One
/// sector of reduced costs is a few thousand sparse dot products —
/// cheap — while a full scan over 10⁵⁺ columns per iteration is what
/// makes dense pricing quadratic overall.
const SECTOR_LEN: usize = 1024;

/// Devex pricing state: reference weights plus a candidate shortlist.
///
/// Weights approximate steepest-edge norms relative to the reference
/// framework (the nonbasic set at the last reset, where all weights are
/// 1). Selection maximizes `d_j²/w_j`; ties break toward the smallest
/// column index so pricing is deterministic.
pub(crate) struct Devex {
    weights: Vec<f64>,
    candidates: Vec<usize>,
    partial_scans_left: usize,
    /// Rotating start of the next sector scan (sparse route only).
    cursor: usize,
    /// Running maximum weight since the last reset (sparse route only;
    /// the dense update recomputes its maximum on every scan).
    max_weight: f64,
}

impl Devex {
    pub(crate) fn new(n_total: usize) -> Devex {
        Devex {
            weights: vec![1.0; n_total],
            candidates: Vec::new(),
            partial_scans_left: 0,
            cursor: 0,
            max_weight: 1.0,
        }
    }

    /// Pick the entering column: scan the candidate shortlist while it
    /// stays fresh, falling back to (and refreshing from) a full scan.
    /// `None` is only ever returned after a full scan found no eligible
    /// column, so it is a sound optimality certificate.
    pub(crate) fn price(
        &mut self,
        core: &Core,
        cost: &[f64],
        y: &[f64],
    ) -> Option<(usize, Direction)> {
        if self.partial_scans_left > 0 {
            let mut best: Option<(usize, Direction, f64)> = None;
            for &j in &self.candidates {
                if matches!(core.status_of(j), VarStatus::Basic(_)) {
                    continue;
                }
                let d = reduced_cost(core, cost, y, j);
                if let Some(dir) = eligible(core, j, d) {
                    let score = d * d / self.weights[j];
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
            }
            if let Some((j, dir, _)) = best {
                self.partial_scans_left -= 1;
                return Some((j, dir));
            }
            // shortlist exhausted: only a full scan may declare optimality
        }

        let mut scored: Vec<(usize, Direction, f64)> = Vec::new();
        for j in 0..core.n_total() {
            if matches!(core.status_of(j), VarStatus::Basic(_)) {
                continue;
            }
            let d = reduced_cost(core, cost, y, j);
            if let Some(dir) = eligible(core, j, d) {
                scored.push((j, dir, d * d / self.weights[j]));
            }
        }
        // descending score, ascending index on ties (deterministic)
        scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(CANDIDATE_LIST_LEN);
        self.candidates = scored.iter().map(|&(j, _, _)| j).collect();
        self.partial_scans_left = PARTIAL_SCANS;
        scored.first().map(|&(j, dir, _)| (j, dir))
    }

    /// Update reference weights after a pivot that enters `q` in basis
    /// row `leaving_pos`. `w_col` is `B⁻¹ A_q` (the FTRAN'd entering
    /// column) and `rho` is `B⁻ᵀ e_r` — both against the *pre-pivot*
    /// basis — so `rho · A_j` is the pivot-row entry `α_j`.
    pub(crate) fn update(
        &mut self,
        core: &Core,
        q: usize,
        leaving_pos: usize,
        w_col: &[f64],
        rho: &[f64],
    ) {
        let alpha_q = w_col[leaving_pos];
        if alpha_q.abs() < 1e-12 {
            return; // degenerate pivot row: keep the old weights
        }
        let gamma_q = self.weights[q].max(1.0);
        let ratio2 = gamma_q / (alpha_q * alpha_q);
        let mut max_weight = 0.0f64;
        for j in 0..core.n_total() {
            if j == q || matches!(core.status_of(j), VarStatus::Basic(_)) {
                continue;
            }
            let alpha_j = core.matrix().col_dot(j, rho);
            if alpha_j != 0.0 {
                let cand = alpha_j * alpha_j * ratio2;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                }
            }
            max_weight = max_weight.max(self.weights[j]);
        }
        // the leaving variable joins the nonbasic set with the weight
        // the entering edge had, scaled by the pivot
        let leaving = core.basis_col(leaving_pos);
        self.weights[leaving] = ratio2.max(1.0);
        if max_weight.max(self.weights[leaving]) > WEIGHT_RESET {
            self.weights.fill(1.0);
        }
    }

    /// Sparse-route pricing: consume the candidate shortlist while it
    /// stays fresh, then refresh it by scanning rotating sectors of
    /// `SECTOR_LEN` columns starting at the cursor, stopping at the
    /// first sector that yields any eligible column. Also returns the
    /// selected column's reduced cost (the caller's incremental dual
    /// update needs it). `None` is returned only after a *full* wrap
    /// of every sector found nothing eligible — a sound optimality
    /// signal against the duals `y` that were passed in (the caller
    /// still re-confirms against freshly computed duals).
    pub(crate) fn price_sparse(
        &mut self,
        core: &Core,
        cost: &[f64],
        y: &[f64],
    ) -> Option<(usize, Direction, f64)> {
        if self.partial_scans_left > 0 {
            let mut best: Option<(usize, Direction, f64, f64)> = None; // (j, dir, d, score)
            for &j in &self.candidates {
                if matches!(core.status_of(j), VarStatus::Basic(_)) {
                    continue;
                }
                let d = reduced_cost(core, cost, y, j);
                if let Some(dir) = eligible(core, j, d) {
                    let score = d * d / self.weights[j];
                    if best.is_none_or(|(_, _, _, s)| score > s) {
                        best = Some((j, dir, d, score));
                    }
                }
            }
            if let Some((j, dir, d, _)) = best {
                self.partial_scans_left -= 1;
                return Some((j, dir, d));
            }
            // shortlist exhausted: fall through to the sector scan
        }

        let n = core.n_total();
        let mut scored: Vec<(usize, Direction, f64, f64)> = Vec::new();
        let mut scanned = 0usize;
        while scanned < n {
            let sector = SECTOR_LEN.min(n - scanned);
            for off in 0..sector {
                let j = (self.cursor + off) % n;
                if matches!(core.status_of(j), VarStatus::Basic(_)) {
                    continue;
                }
                let d = reduced_cost(core, cost, y, j);
                if let Some(dir) = eligible(core, j, d) {
                    scored.push((j, dir, d, d * d / self.weights[j]));
                }
            }
            self.cursor = (self.cursor + sector) % n;
            scanned += sector;
            if !scored.is_empty() {
                break;
            }
        }
        if scored.is_empty() {
            return None; // full wrap, nothing eligible
        }
        // descending score; Vec order within a sector is ascending from
        // the cursor, so ties stay deterministic
        scored.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(CANDIDATE_LIST_LEN);
        self.candidates = scored.iter().map(|&(j, _, _, _)| j).collect();
        self.partial_scans_left = PARTIAL_SCANS;
        scored.first().map(|&(j, dir, d, _)| (j, dir, d))
    }

    /// Sparse-route weight update. Equivalent to [`Devex::update`] but
    /// the pivot-row entries `α_j = ρ' A_j` are accumulated through the
    /// CSR mirror over `rho`'s nonzero rows only: any column that does
    /// not intersect the pivot row's pattern has `α_j = 0` exactly and
    /// keeps its weight untouched. `acc` is a caller-owned scratch of
    /// length `n_total`, cleared on exit.
    pub(crate) fn update_sparse(
        &mut self,
        core: &Core,
        q: usize,
        leaving_pos: usize,
        alpha_q: f64,
        rho: &SparseVec,
        acc: &mut SparseVec,
    ) {
        if alpha_q.abs() < 1e-12 {
            return; // degenerate pivot row: keep the old weights
        }
        let gamma_q = self.weights[q].max(1.0);
        let ratio2 = gamma_q / (alpha_q * alpha_q);
        // Weight refinement pays rho-nnz × CSR-row-length per pivot.
        // Past this density the refinement costs more than the pricing
        // quality it buys (weights are heuristic only — staleness never
        // affects correctness), so keep the old weights and just reseed
        // the leaving variable's below.
        if rho.pattern.len() <= (core.n_rows_m() / 8).max(64) {
            let csr = core.csr().expect("sparse route built the CSR mirror before pivoting");
            for &i in &rho.pattern {
                let ri = rho.values[i];
                if ri == 0.0 {
                    continue;
                }
                let (cols, vals) = csr.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    acc.add(j, v * ri);
                }
            }
            for &j in &acc.pattern {
                if j == q || matches!(core.status_of(j), VarStatus::Basic(_)) {
                    continue;
                }
                let alpha_j = acc.values[j];
                if alpha_j != 0.0 {
                    let cand = alpha_j * alpha_j * ratio2;
                    if cand > self.weights[j] {
                        self.weights[j] = cand;
                        self.max_weight = self.max_weight.max(cand);
                    }
                }
            }
            acc.clear();
        }
        let leaving = core.basis_col(leaving_pos);
        self.weights[leaving] = ratio2.max(1.0);
        self.max_weight = self.max_weight.max(self.weights[leaving]);
        if self.max_weight > WEIGHT_RESET {
            self.weights.fill(1.0);
            self.max_weight = 1.0;
        }
    }
}
