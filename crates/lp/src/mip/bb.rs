//! Branch & bound for (mixed) integer programs.
//!
//! Depth-first with best-LP-bound child ordering, LP relaxations solved
//! by the revised simplex at its default options, most-fractional
//! branching, and packing-rounding incumbents on packing models. Node
//! and iteration limits make it behave like production MIP solvers:
//! when a limit is hit the best incumbent so far is returned with
//! [`MipStatus::Feasible`].

use crate::problem::{Problem, Sense, VarBounds};
use crate::simplex::{solve, SimplexOptions, SolveStatus};

use super::rounding::{greedy_raise, is_packing, round_down};

/// Integrality tolerance.
const TOL_INT: f64 = 1e-6;

/// Branch & bound options.
#[derive(Debug, Clone)]
pub struct BbOptions {
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
}

impl Default for BbOptions {
    fn default() -> Self {
        BbOptions { max_nodes: 50_000 }
    }
}

/// Terminal status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Proven optimal.
    Optimal,
    /// A feasible incumbent exists but limits stopped the proof.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Limits hit before any feasible point was found.
    Unknown,
}

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (user sense), when one exists.
    pub objective: f64,
    /// Incumbent point, when one exists.
    pub x: Vec<f64>,
    /// Number of explored branch-and-bound nodes.
    pub nodes: usize,
}

struct Incumbent {
    objective: f64,
    x: Vec<f64>,
}

/// Solve a MIP by branch & bound.
pub fn solve_mip(problem: &Problem, opts: &BbOptions) -> MipSolution {
    let maximize = problem.sense() == Sense::Maximize;
    let better = |a: f64, b: f64| if maximize { a > b + 1e-9 } else { a < b - 1e-9 };
    // packing models get a round-down incumbent at every node
    let packing = is_packing(problem);

    // node = set of bound overrides
    let mut stack: Vec<Vec<(usize, VarBounds)>> = vec![Vec::new()];
    let mut incumbent: Option<Incumbent> = None;
    let mut nodes = 0usize;
    let mut exhausted = true;

    while let Some(overrides) = stack.pop() {
        if nodes >= opts.max_nodes {
            exhausted = false;
            break;
        }
        nodes += 1;

        let mut node = problem.clone();
        for &(col, b) in &overrides {
            if node.set_bounds(col, b).is_err() {
                // crossed bounds: infeasible child
                continue;
            }
        }
        // crossed bounds check (set_bounds errors leave old bounds)
        if overrides.iter().any(|&(_, b)| b.lower > b.upper) {
            continue;
        }

        let relax = match solve(&node, &SimplexOptions::default()) {
            Ok(s) => s,
            Err(_) => continue,
        };
        match relax.status {
            SolveStatus::Infeasible => continue,
            SolveStatus::Optimal => {}
            // unbounded relaxation of a bounded-variable IP cannot be
            // pruned safely; treat as node failure
            _ => continue,
        }

        // bound pruning
        if let Some(inc) = &incumbent {
            if !better(relax.objective, inc.objective) {
                continue;
            }
        }

        // find most fractional integer variable
        let mut branch_col = None;
        let mut branch_frac = 0.0f64;
        for (j, &is_int) in problem.integers().iter().enumerate() {
            if !is_int {
                continue;
            }
            let f = relax.x[j] - relax.x[j].floor();
            let dist = f.min(1.0 - f);
            if dist > TOL_INT && dist > branch_frac {
                branch_frac = dist;
                branch_col = Some(j);
            }
        }

        match branch_col {
            None => {
                // integral: new incumbent
                let obj = relax.objective;
                if incumbent.as_ref().is_none_or(|inc| better(obj, inc.objective)) {
                    incumbent = Some(Incumbent { objective: obj, x: relax.x.clone() });
                }
            }
            Some(j) => {
                // packing heuristic: round the relaxation down + raise
                if packing {
                    let mut hx = round_down(problem, &relax.x);
                    let order: Vec<usize> =
                        (0..problem.n_cols()).filter(|&c| problem.integers()[c]).collect();
                    greedy_raise(problem, &mut hx, &order);
                    if problem.max_violation(&hx) <= 1e-9 && problem.is_integral(&hx, TOL_INT) {
                        let obj = problem.objective_value(&hx);
                        if incumbent.as_ref().is_none_or(|inc| better(obj, inc.objective)) {
                            incumbent = Some(Incumbent { objective: obj, x: hx });
                        }
                    }
                }

                let v = relax.x[j];
                let cur = node.col_bounds()[j];
                let down = VarBounds { lower: cur.lower, upper: v.floor() };
                let up = VarBounds { lower: v.floor() + 1.0, upper: cur.upper };
                let mut child_down = overrides.clone();
                child_down.push((j, down));
                let mut child_up = overrides;
                child_up.push((j, up));
                // explore the child nearest the LP value first (pushed last)
                if v - v.floor() > 0.5 {
                    stack.push(child_down);
                    stack.push(child_up);
                } else {
                    stack.push(child_up);
                    stack.push(child_down);
                }
            }
        }
    }

    match incumbent {
        Some(inc) => MipSolution {
            status: if exhausted { MipStatus::Optimal } else { MipStatus::Feasible },
            objective: inc.objective,
            x: inc.x,
            nodes,
        },
        None => MipSolution {
            status: if exhausted { MipStatus::Infeasible } else { MipStatus::Unknown },
            objective: f64::NAN,
            x: vec![],
            nodes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RowBounds;

    fn knapsack() -> Problem {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary
        let mut p = Problem::new(Sense::Maximize);
        for (obj, _w) in [(10.0, 3.0), (13.0, 4.0), (7.0, 2.0)] {
            let j = p.add_col(obj, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        p.add_row(RowBounds::at_most(6.0), &[(0, 3.0), (1, 4.0), (2, 2.0)]).unwrap();
        p
    }

    #[test]
    fn knapsack_optimum() {
        let s = solve_mip(&knapsack(), &BbOptions::default());
        assert_eq!(s.status, MipStatus::Optimal);
        // b + c = 13 + 7 = 20 beats a + c = 17
        assert_eq!(s.objective, 20.0);
        assert_eq!(s.x, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn integral_relaxation_short_circuits() {
        // LP optimum already integral -> single node
        let mut p = Problem::new(Sense::Maximize);
        let j = p.add_col(1.0, VarBounds::unit()).unwrap();
        p.set_integer(j).unwrap();
        p.add_row(RowBounds::at_most(1.0), &[(j, 1.0)]).unwrap();
        let s = solve_mip(&p, &BbOptions::default());
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.objective, 1.0);
    }

    #[test]
    fn infeasible_ip() {
        let mut p = Problem::new(Sense::Maximize);
        let j = p.add_col(1.0, VarBounds::unit()).unwrap();
        p.set_integer(j).unwrap();
        p.add_row(RowBounds::at_least(2.0), &[(j, 1.0)]).unwrap();
        let s = solve_mip(&p, &BbOptions::default());
        assert_eq!(s.status, MipStatus::Infeasible);
    }

    #[test]
    fn node_limit_returns_feasible() {
        // a chain of fractional LPs; with node limit 2 we should still
        // carry a packing incumbent
        let mut p = Problem::new(Sense::Maximize);
        for _ in 0..8 {
            let j = p.add_col(1.0, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        for i in 0..7 {
            p.add_row(RowBounds::at_most(1.0), &[(i, 0.7), (i + 1, 0.7)]).unwrap();
        }
        let o = BbOptions { max_nodes: 2 };
        let s = solve_mip(&p, &o);
        assert_eq!(s.status, MipStatus::Feasible);
        assert!(s.objective >= 1.0, "incumbent from packing heuristic");
    }

    #[test]
    fn mixed_integer_keeps_continuous_fractional() {
        // max y + z, y binary, z continuous <= 0.5 via row
        let mut p = Problem::new(Sense::Maximize);
        let y = p.add_col(1.0, VarBounds::unit()).unwrap();
        p.set_integer(y).unwrap();
        let z = p.add_col(1.0, VarBounds::unit()).unwrap();
        p.add_row(RowBounds::at_most(0.5), &[(z, 1.0)]).unwrap();
        p.add_row(RowBounds::at_most(1.4), &[(y, 1.0), (z, 1.0)]).unwrap();
        let s = solve_mip(&p, &BbOptions::default());
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 1.4).abs() < 1e-6);
        assert_eq!(s.x[0], 1.0);
        assert!((s.x[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn minimization_mip() {
        // min a + b s.t. a + b >= 1.5, binary -> 2
        let mut p = Problem::new(Sense::Minimize);
        for _ in 0..2 {
            let j = p.add_col(1.0, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        p.add_row(RowBounds::at_least(1.5), &[(0, 1.0), (1, 1.0)]).unwrap();
        let s = solve_mip(&p, &BbOptions::default());
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.objective, 2.0);
    }
}
