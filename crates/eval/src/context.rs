//! Shared experiment context: dataset, preprocessing, and cached
//! solves. Every solve goes through a [`SolveSession`] at the default
//! LP options.
//!
//! Two `(ε, δ)` pairs with the same collapsed budget
//! `B = min{ε, ln 1/(1−δ)}` induce identical optimization problems, so
//! λ solves are cached by the budget's bit pattern — Table 4's 49 cells
//! need at most 13 LP solves. F-UMP cells are cached by
//! `(budget, support, |O|)`, which also de-duplicates Figure 3(a)/(b)
//! (both sweep the same cells).
//!
//! The caches are behind mutexes so grid sweeps can be *prefetched* in
//! parallel (see [`crate::pool`]): the grid is split into data-defined
//! shards, each shard solves its cells through one [`SolveSession`],
//! and the shard layout never depends on the worker count. Every solve
//! is cold, so a cell's answer depends only on the cell — output is
//! byte-identical for every `--jobs` value. Every session's
//! [`SessionStats`] — the D-UMP solves of [`Ctx::dump`] included — are
//! merged into a context-wide aggregate ([`Ctx::solve_stats`]) so
//! sweeps can show what their cells cost (`repro --stats`).

use std::collections::HashMap;
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

use crate::pool::run_sharded;

/// Budgets per shard when prefetching an O-UMP grid. The chunking is
/// over the *sorted distinct budget list*, so it is a property of the
/// requested grid, not of the worker count (see module docs).
const OUMP_SHARD_LEN: usize = 4;

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

type FumpKey = (u64, u64, u64);

fn fump_key(cell: &FumpCell) -> FumpKey {
    (cell.params.budget().value().to_bits(), cell.min_support.to_bits(), cell.output_size)
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
    /// Aggregate solver counters across every session this context ran
    /// (prefetch shards and on-demand cache misses). Sums are
    /// independent of `jobs` because shard composition is.
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
        let key = params.budget().value().to_bits();
        if let Some(c) = self.constraints_cache.lock().expect("cache poisoned").get(&key) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(PrivacyConstraints::build(&self.pre, params)?);
        self.constraints_cache
            .lock()
            .expect("cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::clone(&c));
        Ok(c)
    }

    /// The O-UMP solution at the given parameters (cached by budget;
    /// cache misses solve cold — sweeps should [`Ctx::prefetch_oump`]
    /// first).
    pub fn oump(&self, params: PrivacyParams) -> Result<Arc<OumpSolution>, CoreError> {
        let key = params.budget().value().to_bits();
        if let Some(s) = self.oump_cache.lock().expect("cache poisoned").get(&key) {
            return Ok(Arc::clone(s));
        }
        let constraints = self.constraints(params)?;
        // a one-shot session: solves exactly like a plain solve would,
        // but feeds the shared stats aggregate
        let mut session = SolveSession::new(SimplexOptions::default());
        let sol = Arc::new(session.solve_oump(&constraints, &OumpOptions::default())?);
        self.record_solve_stats(&session.stats());
        self.insert_oump(key, &sol);
        Ok(sol)
    }

    fn insert_oump(&self, key: u64, sol: &Arc<OumpSolution>) {
        self.oump_cache
            .lock()
            .expect("cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::clone(sol));
    }

    /// Solve the O-UMP for every distinct budget in `grid` that is not
    /// cached yet, sharding the sorted budget list into fixed-size
    /// shards run on up to [`Ctx::jobs`] workers.
    pub fn prefetch_oump(&self, grid: &[PrivacyParams]) -> Result<(), CoreError> {
        let mut todo: Vec<PrivacyParams> = Vec::new();
        {
            let cache = self.oump_cache.lock().expect("cache poisoned");
            let mut seen: Vec<u64> = Vec::new();
            for &p in grid {
                let key = p.budget().value().to_bits();
                if !cache.contains_key(&key) && !seen.contains(&key) {
                    seen.push(key);
                    todo.push(p);
                }
            }
        }
        if todo.is_empty() {
            return Ok(());
        }
        // a fixed order makes the shard layout a property of the grid
        todo.sort_by(|a, b| {
            a.budget().value().partial_cmp(&b.budget().value()).expect("budgets are finite")
        });
        let shards: Vec<Vec<PrivacyParams>> =
            todo.chunks(OUMP_SHARD_LEN).map(<[PrivacyParams]>::to_vec).collect();

        let results = run_sharded(shards, self.jobs, |shard| {
            let mut session = SolveSession::new(SimplexOptions::default());
            let opts = OumpOptions::default();
            let out = shard
                .into_iter()
                .map(|params| {
                    let constraints = self.constraints(params)?;
                    let sol = session.solve_oump(&constraints, &opts)?;
                    Ok((params.budget().value().to_bits(), Arc::new(sol)))
                })
                .collect::<Result<Vec<_>, CoreError>>();
            self.record_solve_stats(&session.stats());
            out
        });
        for shard in results {
            for (key, sol) in shard? {
                self.insert_oump(key, &sol);
            }
        }
        Ok(())
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
        let mut session = SolveSession::new(SimplexOptions::default());
        let sol = session.solve_dump(&constraints, &DumpOptions { solver })?;
        self.record_solve_stats(&session.stats());
        Ok(sol)
    }

    /// The F-UMP solution of one cell (cached; cache misses solve cold
    /// — sweeps should [`Ctx::prefetch_fump`] first).
    pub fn fump(&self, cell: FumpCell) -> Result<Arc<FumpSolution>, CoreError> {
        let key = fump_key(&cell);
        if let Some(s) = self.fump_cache.lock().expect("cache poisoned").get(&key) {
            return Ok(Arc::clone(s));
        }
        let constraints = self.constraints(cell.params)?;
        // one-shot (see the O-UMP cache-miss path above)
        let mut session = SolveSession::new(SimplexOptions::default());
        let sol = Arc::new(session.solve_fump(
            &self.pre,
            &constraints,
            &FumpOptions::new(cell.min_support, cell.output_size),
        )?);
        self.record_solve_stats(&session.stats());
        self.insert_fump(key, &sol);
        Ok(sol)
    }

    fn insert_fump(&self, key: FumpKey, sol: &Arc<FumpSolution>) {
        self.fump_cache
            .lock()
            .expect("cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::clone(sol));
    }

    /// Solve the F-UMP cells of a grid, one session per given shard
    /// (callers pick data-defined shards — e.g. one δ-curve, or one
    /// support row). Cached cells are skipped.
    pub fn prefetch_fump(&self, shards: Vec<Vec<FumpCell>>) -> Result<(), CoreError> {
        let shards: Vec<Vec<FumpCell>> = {
            let cache = self.fump_cache.lock().expect("cache poisoned");
            shards
                .into_iter()
                .map(|shard| {
                    shard.into_iter().filter(|c| !cache.contains_key(&fump_key(c))).collect()
                })
                .filter(|shard: &Vec<FumpCell>| !shard.is_empty())
                .collect()
        };
        if shards.is_empty() {
            return Ok(());
        }
        // warm the constraints cache serially first: shards often share
        // one budget (e.g. every support row of Tables 5/6 uses the
        // reference cell), and concurrent cache misses would each
        // rebuild the same system just to discard all but one
        for cell in shards.iter().flatten() {
            self.constraints(cell.params)?;
        }
        let results = run_sharded(shards, self.jobs, |shard| {
            let mut session = SolveSession::new(SimplexOptions::default());
            let out = shard
                .into_iter()
                .map(|cell| {
                    let constraints = self.constraints(cell.params)?;
                    let sol = session.solve_fump(
                        &self.pre,
                        &constraints,
                        &FumpOptions::new(cell.min_support, cell.output_size),
                    )?;
                    Ok((fump_key(&cell), Arc::new(sol)))
                })
                .collect::<Result<Vec<_>, CoreError>>();
            self.record_solve_stats(&session.stats());
            out
        });
        for shard in results {
            for (key, sol) in shard? {
                self.insert_fump(key, &sol);
            }
        }
        Ok(())
    }
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
