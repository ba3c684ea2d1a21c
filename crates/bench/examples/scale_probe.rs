//! One-shot scale probe behind the tracked 10⁵-user benches.
//!
//! Prints (a) dense-vs-sparse basis factorization times across sizes —
//! the crossover evidence recorded in ROADMAP.md — and (b) wall-clock
//! for each stage of the 10⁵-user O-UMP pipeline (generate → preprocess
//! → constraints → solve), so bench budgets and the CI scale-smoke
//! timeout are set from measurements instead of guesses.
//!
//! ```text
//! cargo run --release -p dpsan-bench --example scale_probe [users] [tiny|small]
//! ```

use std::time::Instant;

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_core::SolveSession;
use dpsan_datagen::{generate, presets, AolLikeConfig};
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::dense::DenseLu;
use dpsan_lp::factor::BasisFactor;
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::SimplexOptions;
use dpsan_lp::sparse::CscMatrix;
use dpsan_searchlog::preprocess;

/// An O-UMP-shaped constraint matrix in CSC form plus a nonsingular
/// mixed structural/slack basis (each structural column is assigned to
/// its first row, so the basis is triangular under the natural order).
fn oump_like_basis(m: usize) -> (CscMatrix, Vec<usize>) {
    // block-angular: each "user" row constrains a handful of pair
    // columns; neighbouring rows share columns like shared pairs do
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    let n_cols = m * 2;
    for j in 0..n_cols {
        let first = (j / 2) % m;
        trips.push((first, j, 1.0 + (j % 7) as f64 * 0.3));
        if j % 3 != 0 {
            trips.push(((first + 1 + j % 5) % m, j, 0.5 + (j % 4) as f64 * 0.2));
        }
    }
    // slack block
    for i in 0..m {
        trips.push((i, n_cols + i, 1.0));
    }
    let a = CscMatrix::from_triplets(m, n_cols + m, &trips);
    // basis: structural column j = 2i owns row i when i is even (its
    // first row); slack otherwise
    let basis: Vec<usize> = (0..m).map(|i| if i % 2 == 0 { 2 * i } else { n_cols + i }).collect();
    (a, basis)
}

fn main() {
    let users: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(100_000);

    println!("== dense vs sparse basis factorization (same basis) ==");
    for m in [256usize, 512, 1024, 2048] {
        let (a, basis) = oump_like_basis(m);
        let t0 = Instant::now();
        let f = BasisFactor::factor(&a, &basis).expect("nonsingular");
        let sparse_t = t0.elapsed();
        // dense LU over the explicit basis matrix
        let mut dense_b = vec![vec![0.0f64; m]; m];
        for (pos, &j) in basis.iter().enumerate() {
            let (rows, vals) = a.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                dense_b[r][pos] = v;
            }
        }
        let t0 = Instant::now();
        let _lu = DenseLu::factor(&dense_b).expect("nonsingular");
        let dense_t = t0.elapsed();
        println!(
            "m={m:5}  sparse {sparse_t:>12?}  dense {dense_t:>12?}  ratio {:6.1}x  lu_nnz {}",
            dense_t.as_secs_f64() / sparse_t.as_secs_f64().max(1e-12),
            f.lu_nnz(),
        );
    }

    println!("== {users}-user O-UMP pipeline ==");
    let base = match std::env::args().nth(2).as_deref() {
        Some("tiny") => presets::aol_tiny(),
        _ => presets::aol_small(),
    };
    let ratio = users as f64 / base.n_users as f64;
    let cfg = AolLikeConfig {
        n_users: users,
        n_queries: ((base.n_queries as f64 * ratio).ceil() as usize).max(1),
        ..base
    };
    let t0 = Instant::now();
    let log = generate(&cfg);
    println!("generate          {:>12?}  ({} tuples)", t0.elapsed(), log.size());
    let t0 = Instant::now();
    let (pre, _) = preprocess(&log);
    println!(
        "preprocess        {:>12?}  ({} pairs, {} user logs)",
        t0.elapsed(),
        pre.n_pairs(),
        pre.n_user_logs()
    );
    let t0 = Instant::now();
    let cons =
        PrivacyConstraints::build(&pre, PrivacyParams::from_e_epsilon(2.0, 0.5)).expect("build");
    println!("constraints       {:>12?}  ({} rows)", t0.elapsed(), cons.n_rows());

    let t0 = Instant::now();
    let sol = SolveSession::new(SimplexOptions::default())
        .solve_oump(&cons, &OumpOptions::default())
        .expect("solve");
    println!(
        "oump solve        {:>12?}  (lambda {}, {} iterations)",
        t0.elapsed(),
        sol.lambda,
        sol.iterations
    );

    // the raw factorization the sparse_factor_100k bench tracks: the
    // standard-form basis of this LP's shape
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = (0..cons.n_pairs())
        .map(|pi| {
            p.add_col(1.0, VarBounds { lower: 0.0, upper: cons.pair_totals()[pi] as f64 })
                .expect("col")
        })
        .collect();
    cons.add_to_problem(&mut p, &cols);
    println!("problem           {} rows x {} cols", p.n_rows(), p.n_cols());
}
