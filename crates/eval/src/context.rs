//! Shared experiment context: dataset, preprocessing, and cached
//! solves. Every solve goes through a one-shot [`SolveSession`] at the
//! default LP options.
//!
//! Two `(ε, δ)` pairs with the same collapsed budget
//! `B = min{ε, ln 1/(1−δ)}` induce identical optimization problems, so
//! λ solves are cached by the budget's bit pattern — Table 4's 49 cells
//! need at most 13 LP solves. F-UMP cells are cached by
//! `(budget, support, |O|)`, which also de-duplicates Figure 3(a)/(b)
//! (both sweep the same cells).
//!
//! The caches are behind mutexes so grid sweeps can be *prefetched* in
//! parallel: a prefetch drops the cached and repeated cells of its
//! grid, then runs each remaining distinct cell as one task on up to
//! [`Ctx::jobs`] workers ([`dpsan_stream::pool::run_sharded`]), calling
//! the same [`Ctx::oump`] / [`Ctx::fump`] an on-demand lookup calls.
//! Every solve is cold, so a cell's answer depends only on the cell and
//! each distinct cell is solved exactly once: `--jobs` changes only
//! wall time, never output bytes or solve counts. Every session's
//! [`SessionStats`] — the D-UMP solves of [`Ctx::dump`] included — are
//! merged into a context-wide aggregate ([`Ctx::solve_stats`]) so
//! sweeps can show what their cells cost (`repro --stats`).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::session::{SessionStats, SolveSession};
use dpsan_core::ump::diversity::{DumpOptions, DumpSolution, DumpSolver};
use dpsan_core::ump::frequent::{FumpOptions, FumpSolution};
use dpsan_core::ump::output_size::{OumpOptions, OumpSolution};
use dpsan_core::CoreError;
use dpsan_datagen::{generate, presets, AolLikeConfig};
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, LogStats, PreprocessReport, SearchLog};
use dpsan_stream::pool::run_sharded;

/// Dataset scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~60 users; seconds for the full suite.
    Tiny,
    /// ~400 users; the default.
    Small,
    /// ~1,000 users; minutes.
    Medium,
    /// 2,500 users as in the paper; expect long runtimes.
    Paper,
}

impl Scale {
    /// The generator preset of this scale.
    pub fn config(self) -> AolLikeConfig {
        match self {
            Scale::Tiny => presets::aol_tiny(),
            Scale::Small => presets::aol_small(),
            Scale::Medium => presets::aol_medium(),
            Scale::Paper => presets::aol_paper(),
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// One F-UMP grid cell: parameters, support threshold, output size.
#[derive(Debug, Clone, Copy)]
pub struct FumpCell {
    /// Privacy parameters of the cell.
    pub params: PrivacyParams,
    /// Minimum support `s` defining the frequent pairs.
    pub min_support: f64,
    /// Output size `|O|` (already clamped by the caller).
    pub output_size: u64,
}

/// Two `(ε, δ)` pairs with one collapsed budget share every cache entry.
fn budget_key(params: PrivacyParams) -> u64 {
    params.budget().value().to_bits()
}

type FumpKey = (u64, u64, u64);

fn fump_key(cell: &FumpCell) -> FumpKey {
    (budget_key(cell.params), cell.min_support.to_bits(), cell.output_size)
}

/// Shared state for one experiment run.
pub struct Ctx {
    /// The raw generated log.
    pub raw: SearchLog,
    /// The preprocessed log `D` every experiment works on.
    pub pre: SearchLog,
    /// What preprocessing removed.
    pub report: PreprocessReport,
    /// The scale used.
    pub scale: Scale,
    jobs: usize,
    oump_cache: Mutex<HashMap<u64, Arc<OumpSolution>>>,
    constraints_cache: Mutex<HashMap<u64, Arc<PrivacyConstraints>>>,
    fump_cache: Mutex<HashMap<FumpKey, Arc<FumpSolution>>>,
    /// Aggregate solver counters across every session this context ran.
    /// Sums are independent of `jobs` because each distinct cell is
    /// solved exactly once, cold.
    solve_stats: Mutex<SessionStats>,
}

impl Ctx {
    /// Generate the dataset of a scale and preprocess it (single
    /// worker; see [`Ctx::with_jobs`]).
    pub fn new(scale: Scale) -> Ctx {
        let raw = generate(&scale.config());
        let (pre, report) = preprocess(&raw);
        Ctx {
            raw,
            pre,
            report,
            scale,
            jobs: 1,
            oump_cache: Mutex::new(HashMap::new()),
            constraints_cache: Mutex::new(HashMap::new()),
            fump_cache: Mutex::new(HashMap::new()),
            solve_stats: Mutex::new(SessionStats::default()),
        }
    }

    /// Set the worker count used by grid prefetches. Results are
    /// byte-identical for every value; `jobs` only trades wall-clock
    /// for CPU.
    pub fn with_jobs(mut self, jobs: usize) -> Ctx {
        self.jobs = jobs.max(1);
        self
    }

    /// The prefetch worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Table-3 style statistics of the raw / preprocessed logs.
    pub fn stats(&self) -> (LogStats, LogStats) {
        (LogStats::of(&self.raw), LogStats::of(&self.pre))
    }

    /// Aggregate LP-solver counters accumulated so far (solves,
    /// iterations, refactorizations). Independent of [`Ctx::jobs`].
    pub fn solve_stats(&self) -> SessionStats {
        *self.solve_stats.lock().expect("stats poisoned")
    }

    /// Read and reset the aggregate solver counters — lets a runner
    /// report per-experiment deltas.
    pub fn take_solve_stats(&self) -> SessionStats {
        std::mem::take(&mut *self.solve_stats.lock().expect("stats poisoned"))
    }

    /// Merge solver counters from a session run outside the context's
    /// own caches (e.g. a [`dpsan_core::mechanism::Release`] produced
    /// by the comparison suite) into the aggregate.
    pub fn record_solve_stats(&self, stats: &SessionStats) {
        self.solve_stats.lock().expect("stats poisoned").merge(stats);
    }

    /// The constraint system at the given parameters (cached by budget).
    pub fn constraints(&self, params: PrivacyParams) -> Result<Arc<PrivacyConstraints>, CoreError> {
        memo(&self.constraints_cache, budget_key(params), || {
            PrivacyConstraints::build(&self.pre, params)
        })
    }

    /// Run `run` through a one-shot [`SolveSession`] at the default LP
    /// options and merge its counters into the aggregate.
    fn solve<T>(
        &self,
        run: impl FnOnce(&mut SolveSession) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let mut session = SolveSession::new(SimplexOptions::default());
        let out = run(&mut session);
        self.record_solve_stats(&session.stats());
        out
    }

    /// The O-UMP solution at the given parameters (cached by budget;
    /// sweeps should [`Ctx::prefetch_oump`] first).
    pub fn oump(&self, params: PrivacyParams) -> Result<Arc<OumpSolution>, CoreError> {
        memo(&self.oump_cache, budget_key(params), || {
            let constraints = self.constraints(params)?;
            self.solve(|session| session.solve_oump(&constraints, &OumpOptions::default()))
        })
    }

    /// Solve the O-UMP for every distinct budget in `grid` that is not
    /// cached yet, one task per budget on up to [`Ctx::jobs`] workers.
    pub fn prefetch_oump(&self, grid: &[PrivacyParams]) -> Result<(), CoreError> {
        let todo = uncached(&self.oump_cache, grid, |&p| budget_key(p));
        run_sharded(todo, self.jobs, |p| self.oump(p).map(drop)).into_iter().collect()
    }

    /// The maximum output size λ at the given parameters.
    pub fn lambda(&self, params: PrivacyParams) -> Result<u64, CoreError> {
        Ok(self.oump(params)?.lambda)
    }

    /// Solve the D-UMP at the given parameters with `solver`, through a
    /// one-shot session (not cached: Table 7 and Figure 5 compare and
    /// time the solvers themselves).
    pub fn dump(
        &self,
        params: PrivacyParams,
        solver: DumpSolver,
    ) -> Result<DumpSolution, CoreError> {
        let constraints = self.constraints(params)?;
        self.solve(|session| session.solve_dump(&constraints, &DumpOptions { solver }))
    }

    /// The F-UMP solution of one cell (cached; sweeps should
    /// [`Ctx::prefetch_fump`] first).
    pub fn fump(&self, cell: FumpCell) -> Result<Arc<FumpSolution>, CoreError> {
        memo(&self.fump_cache, fump_key(&cell), || {
            let constraints = self.constraints(cell.params)?;
            let opts = FumpOptions::new(cell.min_support, cell.output_size);
            self.solve(|session| session.solve_fump(&self.pre, &constraints, &opts))
        })
    }

    /// Solve every distinct F-UMP cell of `cells` that is not cached
    /// yet, one task per cell on up to [`Ctx::jobs`] workers.
    pub fn prefetch_fump(&self, cells: &[FumpCell]) -> Result<(), CoreError> {
        let todo = uncached(&self.fump_cache, cells, fump_key);
        // warm the constraints cache serially first: cells often share
        // one budget (every cell of Tables 5/6 uses the reference
        // cell), and concurrent cache misses would each rebuild the
        // same system just to discard all but one
        for cell in &todo {
            self.constraints(cell.params)?;
        }
        run_sharded(todo, self.jobs, |cell| self.fump(cell).map(drop)).into_iter().collect()
    }
}

/// The cached value under `key`, computed by `make` and inserted on a
/// miss.
fn memo<K: Eq + Hash, V>(
    cache: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    make: impl FnOnce() -> Result<V, CoreError>,
) -> Result<Arc<V>, CoreError> {
    if let Some(v) = cache.lock().expect("cache poisoned").get(&key) {
        return Ok(Arc::clone(v));
    }
    let v = Arc::new(make()?);
    Ok(Arc::clone(cache.lock().expect("cache poisoned").entry(key).or_insert(v)))
}

/// The items of `grid` whose key is neither cached nor a repeat of an
/// earlier item, in grid order. Deduplicating before dispatch is what
/// keeps the solve count independent of the worker count: two tasks
/// racing on one key would both miss the cache and both solve.
fn uncached<T: Copy, K: Eq + Hash, V>(
    cache: &Mutex<HashMap<K, Arc<V>>>,
    grid: &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let cache = cache.lock().expect("cache poisoned");
    let mut seen = HashSet::new();
    grid.iter()
        .filter(|item| {
            let k = key(item);
            !cache.contains_key(&k) && seen.insert(k)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_context_builds_and_caches() {
        let ctx = Ctx::new(Scale::Tiny);
        let (raw, pre) = ctx.stats();
        assert!(pre.pairs < raw.pairs);

        let a = PrivacyParams::from_e_epsilon(1.4, 0.5); // ε binds: B = ln 1.4
        let b = PrivacyParams::from_e_epsilon(1.4, 0.8); // same budget
        let la = ctx.lambda(a).unwrap();
        let lb = ctx.lambda(b).unwrap();
        assert_eq!(la, lb);
        assert_eq!(ctx.oump_cache.lock().unwrap().len(), 1, "one solve for equal budgets");
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn prefetch_matches_on_demand_lambdas() {
        let grid: Vec<PrivacyParams> = [1.01, 1.4, 1.7, 2.0, 2.3]
            .iter()
            .flat_map(|&e| [0.1, 0.5].map(|d| PrivacyParams::from_e_epsilon(e, d)))
            .collect();

        let cold = Ctx::new(Scale::Tiny);
        let lambdas_cold: Vec<u64> = grid.iter().map(|&p| cold.lambda(p).unwrap()).collect();

        for jobs in [1, 3] {
            let ctx = Ctx::new(Scale::Tiny).with_jobs(jobs);
            ctx.prefetch_oump(&grid).unwrap();
            let lambdas: Vec<u64> = grid.iter().map(|&p| ctx.lambda(p).unwrap()).collect();
            assert_eq!(lambdas, lambdas_cold, "jobs={jobs}");
        }
    }

    #[test]
    fn prefetch_solves_each_distinct_cell_once() {
        // (1.4, 0.5) and (1.4, 0.8) share a budget, and (2.0, 0.5) is
        // listed twice: three distinct budgets
        let grid: Vec<PrivacyParams> = [(1.4, 0.5), (1.4, 0.8), (2.0, 0.5), (2.0, 0.5), (1.7, 0.1)]
            .iter()
            .map(|&(e, d)| PrivacyParams::from_e_epsilon(e, d))
            .collect();
        let cell = |params, output_size| FumpCell { params, min_support: 0.05, output_size };
        // one repeated cell, one equal-budget alias: three distinct keys
        let cells = [
            cell(grid[0], 2),
            cell(grid[1], 2),
            cell(grid[2], 2),
            cell(grid[2], 2),
            cell(grid[2], 3),
        ];
        for jobs in [1, 3] {
            let ctx = Ctx::new(Scale::Tiny).with_jobs(jobs);
            ctx.prefetch_oump(&grid).unwrap();
            assert_eq!(ctx.take_solve_stats().solves, 3, "O-UMP, jobs={jobs}");
            ctx.prefetch_fump(&cells).unwrap();
            assert_eq!(ctx.take_solve_stats().solves, 3, "F-UMP, jobs={jobs}");
            // every grid cell is now a cache hit
            for &p in &grid {
                ctx.oump(p).unwrap();
            }
            for &c in &cells {
                ctx.fump(c).unwrap();
            }
            assert_eq!(ctx.solve_stats().solves, 0, "jobs={jobs}");
        }
    }

    #[test]
    fn prefetch_is_idempotent() {
        let ctx = Ctx::new(Scale::Tiny).with_jobs(2);
        let grid = [PrivacyParams::from_e_epsilon(2.0, 0.5)];
        ctx.prefetch_oump(&grid).unwrap();
        let first = ctx.oump(grid[0]).unwrap();
        ctx.prefetch_oump(&grid).unwrap();
        let second = ctx.oump(grid[0]).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second prefetch is a cache no-op");
    }
}
