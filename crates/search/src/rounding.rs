//! Rounding approximate factors onto the dyadic coefficient grid.
//!
//! Published practical FMM algorithms use coefficients from a tiny dyadic
//! set. Repair snaps each entry of a least-squares `W` to the nearest grid
//! value before verifying it.

/// The default coefficient grid: `{0, ±1/2, ±1, ±2}` covers every algorithm
/// in the paper's Figure 2 family.
pub const DEFAULT_GRID: &[f64] = &[0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0];

/// Snap `x` to the nearest value in `grid`.
pub fn snap(x: f64, grid: &[f64]) -> f64 {
    let mut best = grid[0];
    let mut best_d = (x - grid[0]).abs();
    for &g in &grid[1..] {
        let d = (x - g).abs();
        if d < best_d {
            best_d = d;
            best = g;
        }
    }
    best
}

/// Snap every entry of a factor matrix; returns the largest snap distance
/// (a confidence signal: a near-exact least-squares `W` snaps by < 0.1).
pub fn snap_all(data: &mut [f64], grid: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for x in data.iter_mut() {
        let s = snap(*x, grid);
        worst = worst.max((*x - s).abs());
        *x = s;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_picks_nearest() {
        assert_eq!(snap(0.9, DEFAULT_GRID), 1.0);
        assert_eq!(snap(-0.6, DEFAULT_GRID), -0.5);
        assert_eq!(snap(0.2, DEFAULT_GRID), 0.0);
        assert_eq!(snap(1.7, DEFAULT_GRID), 2.0);
        assert_eq!(snap(0.26, DEFAULT_GRID), 0.5);
    }

    #[test]
    fn snap_all_reports_worst_distance() {
        let mut data = vec![0.95, -1.02, 0.4];
        let worst = snap_all(&mut data, DEFAULT_GRID);
        assert_eq!(data, vec![1.0, -1.0, 0.5]);
        assert!((worst - 0.1).abs() < 1e-12);
    }
}
