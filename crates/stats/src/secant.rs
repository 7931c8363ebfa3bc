//! Non-linear least squares by the multivariate secant method.
//!
//! The paper fit its regression models in SAS PROC NLIN using the
//! *multivariate secant* method (also known as DUD — "doesn't use
//! derivatives"). This module implements the same idea: Gauss–Newton
//! iterations where the Jacobian of the residual vector is approximated by
//! finite differences and then cheaply maintained with Broyden rank-one
//! updates, plus step halving to guarantee monotone progress.

/// Most parameters a model may carry (the two-phase hyperexponential has
/// three). The solver keeps parameter vectors, the normal equations and
/// the step in fixed-size arrays of this length.
pub const MAX_PARAMS: usize = 3;

/// Options controlling the secant solver.
#[derive(Clone, Copy, Debug)]
pub struct SecantOptions {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence threshold on the relative SSE improvement.
    pub tol: f64,
    /// Relative perturbation used for the initial finite-difference Jacobian.
    pub rel_step: f64,
}

impl Default for SecantOptions {
    fn default() -> Self {
        SecantOptions { max_iter: 60, tol: 1e-10, rel_step: 1e-4 }
    }
}

/// Result of a secant minimization.
#[derive(Clone, Debug)]
pub struct SecantFit {
    /// The parameter vector reached.
    pub params: Vec<f64>,
    /// Final sum of squared residuals.
    pub sse: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the relative-improvement tolerance was met.
    pub converged: bool,
}

/// Minimizes `‖r(p)‖²` over `m` residuals, starting from `p0`.
///
/// `residuals(p, out)` writes the `m` residuals at the parameter point `p`
/// into `out` and returns `true`, or returns `false` if the point is
/// infeasible (the solver treats it as infinitely bad and ignores `out`).
/// A residual vector containing non-finite values (NaN / ±∞) is treated
/// exactly like an infeasible point — the solver never iterates on NaNs.
///
/// The residual, candidate and Jacobian buffers are allocated once per
/// solve; no evaluation allocates.
///
/// Returns `None` if the starting point itself is infeasible or produces
/// non-finite residuals.
///
/// # Panics
///
/// Panics if `p0` has more than [`MAX_PARAMS`] parameters.
///
/// # Example
///
/// ```
/// use commchar_stats::secant::{minimize, SecantOptions};
/// // Fit y = a·x to points on y = 3x: residuals r_i = a·x_i − y_i.
/// let xs = [1.0, 2.0, 3.0];
/// let fit = minimize(
///     &[1.0],
///     xs.len(),
///     |p, out| {
///         for (r, &x) in out.iter_mut().zip(&xs) {
///             *r = p[0] * x - 3.0 * x;
///         }
///         true
///     },
///     SecantOptions::default(),
/// )
/// .unwrap();
/// assert!((fit.params[0] - 3.0).abs() < 1e-6);
/// ```
pub fn minimize<F>(p0: &[f64], m: usize, mut residuals: F, opts: SecantOptions) -> Option<SecantFit>
where
    F: FnMut(&[f64], &mut [f64]) -> bool,
{
    let n = p0.len();
    assert!(n <= MAX_PARAMS, "secant solver takes at most {MAX_PARAMS} parameters, got {n}");
    let mut p = [0.0; MAX_PARAMS];
    p[..n].copy_from_slice(p0);
    let mut r = vec![0.0; m];
    // A NaN/∞ residual at the start would poison every SSE comparison
    // (`NaN < sse` is always false) and the solver would spin its full
    // iteration budget to report a bogus "converged" NaN fit.
    if !feasible(&mut residuals, &p[..n], &mut r) {
        return None;
    }
    let mut sse = dot(&r, &r);
    // Candidate residuals; swapped with `r` when a step is accepted.
    let mut rc = vec![0.0; m];

    // Initial Jacobian by forward differences.
    let mut jac = vec![[0.0; MAX_PARAMS]; m];
    let refresh_jacobian = |p: &[f64; MAX_PARAMS],
                            r: &[f64],
                            jac: &mut [[f64; MAX_PARAMS]],
                            scratch: &mut [f64],
                            residuals: &mut F|
     -> bool {
        for j in 0..n {
            let h = (p[j].abs() * opts.rel_step).max(1e-8);
            let mut pj = *p;
            pj[j] += h;
            // Non-finite residuals are infeasible points for the
            // difference quotient, same as an infeasible return.
            if feasible(residuals, &pj[..n], scratch) {
                for (row, (&rj, &ri)) in jac.iter_mut().zip(scratch.iter().zip(r)) {
                    row[j] = (rj - ri) / h;
                }
                continue;
            }
            // Try backward difference at the boundary.
            let mut pb = *p;
            pb[j] -= h;
            if !feasible(residuals, &pb[..n], scratch) {
                return false;
            }
            for (row, (&rb, &ri)) in jac.iter_mut().zip(scratch.iter().zip(r)) {
                row[j] = (ri - rb) / h;
            }
        }
        true
    };
    if !refresh_jacobian(&p, &r, &mut jac, &mut rc, &mut residuals) {
        return Some(SecantFit { params: p[..n].to_vec(), sse, iterations: 0, converged: false });
    }

    let mut converged = false;
    let mut iterations = 0;
    let mut just_refreshed = true;
    for it in 0..opts.max_iter {
        iterations = it + 1;
        // Gauss–Newton step from the secant Jacobian: (JᵀJ + λI)Δ = −Jᵀr.
        let mut jtj = [[0.0; MAX_PARAMS]; MAX_PARAMS];
        let mut jtr = [0.0; MAX_PARAMS];
        for (row, &ri) in jac.iter().zip(&r) {
            for a in 0..n {
                jtr[a] += row[a] * ri;
                for b in 0..n {
                    jtj[a][b] += row[a] * row[b];
                }
            }
        }
        // Levenberg damping with increase-on-failure.
        let mut lambda = 1e-8 * (0..n).map(|a| jtj[a][a]).fold(0.0f64, f64::max).max(1e-12);
        let mut improved = false;
        for _ in 0..12 {
            let mut a = jtj;
            for (d, row) in a.iter_mut().enumerate().take(n) {
                row[d] += lambda;
            }
            let Some(delta) = solve(a, jtr.map(|v| -v), n) else {
                lambda *= 10.0;
                continue;
            };
            let mut cand = p;
            for (ci, di) in cand.iter_mut().zip(&delta[..n]) {
                *ci += di;
            }
            if feasible(&mut residuals, &cand[..n], &mut rc) {
                let sse_c = dot(&rc, &rc);
                if sse_c < sse {
                    // Broyden rank-one update: J += (Δr − JΔp)Δpᵀ / ‖Δp‖².
                    let dp2 = dot(&delta[..n], &delta[..n]);
                    if dp2 > 0.0 {
                        for (row, (&rci, &ri)) in jac.iter_mut().zip(rc.iter().zip(&r)) {
                            let jdp = dot(&row[..n], &delta[..n]);
                            let coeff = (rci - ri - jdp) / dp2;
                            for (jj, dj) in row.iter_mut().zip(&delta[..n]) {
                                *jj += coeff * dj;
                            }
                        }
                    }
                    let rel = (sse - sse_c) / sse.max(1e-300);
                    p = cand;
                    std::mem::swap(&mut r, &mut rc);
                    sse = sse_c;
                    improved = true;
                    if rel < opts.tol {
                        converged = true;
                    }
                    break;
                }
            }
            lambda *= 10.0;
        }
        if converged {
            break;
        }
        if improved {
            just_refreshed = false;
        } else if just_refreshed {
            // Stalled even with a freshly computed Jacobian: local optimum
            // (to the solver's resolution).
            converged = true;
            break;
        } else {
            // The Broyden updates may have drifted; re-anchor and retry.
            if !refresh_jacobian(&p, &r, &mut jac, &mut rc, &mut residuals) {
                break;
            }
            just_refreshed = true;
        }
    }

    Some(SecantFit { params: p[..n].to_vec(), sse, iterations, converged })
}

/// Evaluates the residuals at `p` into `out`: true when the point is
/// feasible and every residual is finite.
fn feasible<F>(residuals: &mut F, p: &[f64], out: &mut [f64]) -> bool
where
    F: FnMut(&[f64], &mut [f64]) -> bool,
{
    residuals(p, out) && out.iter().all(|x| x.is_finite())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves the leading `n × n` system `A x = b` by Gaussian elimination
/// with partial pivoting. Returns `None` for singular systems.
fn solve(
    mut a: [[f64; MAX_PARAMS]; MAX_PARAMS],
    mut b: [f64; MAX_PARAMS],
    n: usize,
) -> Option<[f64; MAX_PARAMS]> {
    for col in 0..n {
        // Pivot.
        let piv =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[piv][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            // Reads row `col` while mutating row `row`; indexing keeps the
            // borrows disjoint.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; MAX_PARAMS];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
        if !x[col].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pads a small system into the solver's fixed-size arrays.
    fn system(
        rows: &[&[f64]],
        rhs: &[f64],
    ) -> ([[f64; MAX_PARAMS]; MAX_PARAMS], [f64; MAX_PARAMS]) {
        let mut a = [[0.0; MAX_PARAMS]; MAX_PARAMS];
        let mut b = [0.0; MAX_PARAMS];
        for (i, row) in rows.iter().enumerate() {
            a[i][..row.len()].copy_from_slice(row);
        }
        b[..rhs.len()].copy_from_slice(rhs);
        (a, b)
    }

    /// Residuals `f(p, x_i) − y_i` over paired points; infeasible where
    /// `ok` rejects the parameters.
    fn curve<'a>(
        xs: &'a [f64],
        ys: &'a [f64],
        ok: impl Fn(&[f64]) -> bool + 'a,
        f: impl Fn(&[f64], f64) -> f64 + 'a,
    ) -> impl FnMut(&[f64], &mut [f64]) -> bool + 'a {
        move |p, out| {
            if !ok(p) {
                return false;
            }
            for (r, (&x, &y)) in out.iter_mut().zip(xs.iter().zip(ys)) {
                *r = f(p, x) - y;
            }
            true
        }
    }

    /// Residuals given by a closure returning the whole vector.
    fn fixed(f: impl Fn(&[f64]) -> Vec<f64>) -> impl FnMut(&[f64], &mut [f64]) -> bool {
        move |p, out| {
            out.copy_from_slice(&f(p));
            true
        }
    }

    #[test]
    fn solve_identity() {
        let (a, b) = system(&[&[1.0, 0.0], &[0.0, 1.0]], &[3.0, 4.0]);
        let x = solve(a, b, 2).unwrap();
        assert_eq!(x[..2], [3.0, 4.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // First pivot is zero; needs row swap.
        let (a, b) = system(&[&[0.0, 1.0], &[2.0, 1.0]], &[1.0, 4.0]);
        let x = solve(a, b, 2).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let (a, b) = system(&[&[1.0, 2.0], &[2.0, 4.0]], &[1.0, 2.0]);
        assert!(solve(a, b, 2).is_none());
    }

    #[test]
    fn solve_three_by_three() {
        let (a, b) =
            system(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]], &[3.0, 5.0, 5.0]);
        let x = solve(a, b, 3).unwrap();
        for (got, want) in x.iter().zip([1.0, 1.0, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn fits_exponential_decay() {
        // y = exp(-k x) with k = 0.7, fit k from samples.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (-0.7 * x).exp()).collect();
        let fit = minimize(
            &[0.2],
            xs.len(),
            curve(&xs, &ys, |p| p[0] > 0.0, |p, x| (-p[0] * x).exp()),
            SecantOptions::default(),
        )
        .unwrap();
        assert!((fit.params[0] - 0.7).abs() < 1e-4, "got {:?}", fit.params);
        assert!(fit.sse < 1e-8);
    }

    #[test]
    fn fits_two_parameter_curve() {
        // y = a e^{-b x}: recover a = 2, b = 0.4.
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * (-0.4 * x).exp()).collect();
        let fit = minimize(
            &[1.0, 1.0],
            xs.len(),
            curve(&xs, &ys, |p| p[1] >= 0.0, |p, x| p[0] * (-p[1] * x).exp()),
            SecantOptions::default(),
        )
        .unwrap();
        assert!((fit.params[0] - 2.0).abs() < 1e-3, "{:?}", fit.params);
        assert!((fit.params[1] - 0.4).abs() < 1e-3, "{:?}", fit.params);
    }

    #[test]
    fn fits_three_parameter_curve() {
        // y = a e^{-b x} + c: recover a = 1.5, b = 0.6, c = 0.25.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.5 * (-0.6 * x).exp() + 0.25).collect();
        let fit = minimize(
            &[1.0, 1.0, 0.0],
            xs.len(),
            curve(&xs, &ys, |p| p[1] >= 0.0, |p, x| p[0] * (-p[1] * x).exp() + p[2]),
            SecantOptions::default(),
        )
        .unwrap();
        for (got, want) in fit.params.iter().zip([1.5, 0.6, 0.25]) {
            assert!((got - want).abs() < 1e-3, "{:?}", fit.params);
        }
    }

    #[test]
    #[should_panic(expected = "at most 3 parameters")]
    fn more_than_max_params_is_rejected() {
        let _ = minimize(&[0.0; 4], 1, fixed(|_| vec![0.0]), SecantOptions::default());
    }

    #[test]
    fn infeasible_start_is_none() {
        let fit = minimize(&[1.0], 1, |_, _| false, SecantOptions::default());
        assert!(fit.is_none());
    }

    #[test]
    fn nan_residuals_at_start_is_none() {
        // Pathological objective: the residuals are NaN everywhere.
        // Pre-fix, this iterated for the full budget on NaNs and came
        // back "converged" with a NaN SSE; it must bail out instead.
        let fit = minimize(
            &[1.0, 2.0],
            2,
            fixed(|p| vec![f64::NAN, p[0] * f64::NAN]),
            SecantOptions::default(),
        );
        assert!(fit.is_none());
    }

    #[test]
    fn nan_residuals_off_start_do_not_poison_fit() {
        // Finite at the start, NaN one step away in every direction: the
        // Jacobian refresh must treat those points as infeasible (pre-fix
        // a NaN entered the Jacobian and the pivot search panicked on
        // `partial_cmp(NaN)`), so the solver returns the start unharmed.
        let fit = minimize(
            &[1.0],
            1,
            fixed(|p| if (p[0] - 1.0).abs() < 1e-12 { vec![0.5] } else { vec![f64::NAN] }),
            SecantOptions::default(),
        )
        .unwrap();
        assert_eq!(fit.params, vec![1.0]);
        assert!(fit.sse.is_finite());
        assert!(!fit.converged);
    }

    #[test]
    fn infinite_residuals_near_pole_still_minimizes() {
        // A pole at p = 0 emits ±∞ residuals rather than an infeasible
        // return; the solver must skirt it and still pull the parameter
        // toward the optimum at 2 from the feasible side.
        let fit = minimize(
            &[0.5],
            2,
            fixed(|p| {
                if p[0] == 0.0 {
                    vec![f64::INFINITY, 0.0]
                } else if p[0] < 0.0 {
                    vec![f64::NEG_INFINITY, 0.0]
                } else {
                    vec![p[0] - 2.0, (1.0 / p[0]).min(1e6) * 1e-9]
                }
            }),
            SecantOptions::default(),
        )
        .unwrap();
        assert!(fit.sse.is_finite());
        assert!((fit.params[0] - 2.0).abs() < 0.1, "got {:?}", fit.params);
    }

    #[test]
    fn perfect_start_converges_immediately() {
        let fit =
            minimize(&[3.0], 1, fixed(|p| vec![p[0] - 3.0]), SecantOptions::default()).unwrap();
        assert!(fit.sse < 1e-20);
    }

    #[test]
    fn a_step_off_the_feasible_side_uses_the_backward_difference() {
        // Feasible only for p ≤ 1 and starting at the edge: the forward
        // difference lands outside, so the Jacobian comes from the
        // backward one and the solver still walks down to the optimum.
        let fit = minimize(
            &[1.0],
            1,
            |p, out| {
                out[0] = p[0] - 0.25;
                p[0] <= 1.0
            },
            SecantOptions::default(),
        )
        .unwrap();
        assert!((fit.params[0] - 0.25).abs() < 1e-6, "got {:?}", fit.params);
    }
}
