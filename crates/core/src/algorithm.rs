//! The `[[U, V, W]]` algorithm type.

use crate::brent;
use crate::coeffs::CoeffMatrix;
use crate::json;
use std::sync::Arc;

/// A one-level `<m̃, k̃, ñ>` fast matrix multiplication algorithm (paper
/// §3.1): `C := C + A·B` over an `m̃ x k̃` partition of `A`, `k̃ x ñ` of
/// `B`, and `m̃ x ñ` of `C`, computed with `R = rank()` sub-multiplications
///
/// ```text
/// M_r = (sum_i U[i,r]·A_i) · (sum_j V[j,r]·B_j),   C_p += W[p,r]·M_r
/// ```
///
/// where submatrices are indexed row-major within their grid.
///
/// Construction verifies the Brent equations, so any `FmmAlgorithm` value
/// is a *proven-correct* bilinear algorithm.
#[derive(Clone, Debug)]
pub struct FmmAlgorithm {
    name: String,
    mt: usize,
    kt: usize,
    nt: usize,
    u: CoeffMatrix,
    v: CoeffMatrix,
    w: CoeffMatrix,
}

impl FmmAlgorithm {
    /// Build and verify an algorithm. Returns an error describing the first
    /// violated Brent equation if the triple is not a valid `<m̃,k̃,ñ>`
    /// algorithm.
    pub fn new(
        name: impl Into<String>,
        (mt, kt, nt): (usize, usize, usize),
        u: CoeffMatrix,
        v: CoeffMatrix,
        w: CoeffMatrix,
    ) -> Result<Self, String> {
        assert!(mt >= 1 && kt >= 1 && nt >= 1, "partition dimensions must be positive");
        if u.rows() != mt * kt {
            return Err(format!("U must have m̃·k̃ = {} rows, got {}", mt * kt, u.rows()));
        }
        if v.rows() != kt * nt {
            return Err(format!("V must have k̃·ñ = {} rows, got {}", kt * nt, v.rows()));
        }
        if w.rows() != mt * nt {
            return Err(format!("W must have m̃·ñ = {} rows, got {}", mt * nt, w.rows()));
        }
        let r = u.cols();
        if v.cols() != r || w.cols() != r {
            return Err(format!(
                "U, V, W must share a column count: got {}, {}, {}",
                r,
                v.cols(),
                w.cols()
            ));
        }
        let algo = Self { name: name.into(), mt, kt, nt, u, v, w };
        brent::verify(&algo).map_err(|e| e.to_string())?;
        #[cfg(test)]
        verify_log::record(&algo);
        Ok(algo)
    }

    /// Build without verification — for search intermediates only.
    pub fn new_unchecked(
        name: impl Into<String>,
        (mt, kt, nt): (usize, usize, usize),
        u: CoeffMatrix,
        v: CoeffMatrix,
        w: CoeffMatrix,
    ) -> Self {
        Self { name: name.into(), mt, kt, nt, u, v, w }
    }

    /// Algorithm name, e.g. `"strassen"` or `"<2,3,2>"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Partition dimensions `(m̃, k̃, ñ)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.mt, self.kt, self.nt)
    }

    /// Number of sub-multiplications `R`.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Number of sub-multiplications classical multiplication would need
    /// (`m̃·k̃·ñ`).
    pub fn classical_rank(&self) -> usize {
        self.mt * self.kt * self.nt
    }

    /// Theoretical speedup per recursive step, `m̃k̃ñ / R` (Fig. 2's
    /// "Theory" column is `(m̃k̃ñ/R - 1) · 100%`).
    pub fn speedup_per_level(&self) -> f64 {
        self.classical_rank() as f64 / self.rank() as f64
    }

    /// The `U` coefficient matrix (`(m̃·k̃) x R`).
    pub fn u(&self) -> &CoeffMatrix {
        &self.u
    }

    /// The `V` coefficient matrix (`(k̃·ñ) x R`).
    pub fn v(&self) -> &CoeffMatrix {
        &self.v
    }

    /// The `W` coefficient matrix (`(m̃·ñ) x R`).
    pub fn w(&self) -> &CoeffMatrix {
        &self.w
    }

    /// Rename (used when registering derived algorithms).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Shared-ownership handle, the form plans hold.
    pub fn into_arc(self) -> Arc<FmmAlgorithm> {
        Arc::new(self)
    }

    /// Serialize to the registry JSON format.
    pub fn to_json(&self) -> String {
        let doc = json::Value::Object(std::collections::BTreeMap::from([
            ("name".to_string(), json::Value::String(self.name.clone())),
            ("mt".to_string(), json::Value::Int(self.mt as i64)),
            ("kt".to_string(), json::Value::Int(self.kt as i64)),
            ("nt".to_string(), json::Value::Int(self.nt as i64)),
            ("u".to_string(), self.u.to_json_value()),
            ("v".to_string(), self.v.to_json_value()),
            ("w".to_string(), self.w.to_json_value()),
        ]));
        json::to_string_pretty(&doc)
    }

    /// Deserialize from the registry JSON format and re-verify.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let name = doc.get("name")?.as_str()?.to_string();
        let dims =
            (doc.get("mt")?.as_usize()?, doc.get("kt")?.as_usize()?, doc.get("nt")?.as_usize()?);
        let u = CoeffMatrix::from_json_value(doc.get("u")?)?;
        let v = CoeffMatrix::from_json_value(doc.get("v")?)?;
        let w = CoeffMatrix::from_json_value(doc.get("w")?)?;
        // Round-trip through the checked constructor: deserialized data is
        // untrusted.
        FmmAlgorithm::new(name, dims, u, v, w)
    }
}

impl std::fmt::Display for FmmAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} <{},{},{}> R={}", self.name, self.mt, self.kt, self.nt, self.rank())
    }
}

/// What [`FmmAlgorithm::new`] verified, for tests that count the work a
/// construction does instead of timing it.
#[cfg(test)]
pub(crate) mod verify_log {
    use super::FmmAlgorithm;
    use std::cell::RefCell;

    thread_local! {
        static LOG: RefCell<Option<Vec<FmmAlgorithm>>> = const { RefCell::new(None) };
    }

    pub(super) fn record(algo: &FmmAlgorithm) {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push(algo.clone());
            }
        });
    }

    /// Run `f` and return its result with every algorithm verified on this
    /// thread while it ran, in order.
    pub(crate) fn during<R>(f: impl FnOnce() -> R) -> (R, Vec<FmmAlgorithm>) {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        let out = f();
        let verified = LOG.with(|log| log.borrow_mut().take()).expect("the log was started above");
        (out, verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classical_1x1() -> FmmAlgorithm {
        FmmAlgorithm::new(
            "scalar",
            (1, 1, 1),
            CoeffMatrix::from_rows(1, 1, vec![1.0]),
            CoeffMatrix::from_rows(1, 1, vec![1.0]),
            CoeffMatrix::from_rows(1, 1, vec![1.0]),
        )
        .unwrap()
    }

    #[test]
    fn scalar_algorithm_is_valid() {
        let a = classical_1x1();
        assert_eq!(a.rank(), 1);
        assert_eq!(a.classical_rank(), 1);
        assert_eq!(a.speedup_per_level(), 1.0);
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let err = FmmAlgorithm::new(
            "bad",
            (2, 2, 2),
            CoeffMatrix::zeros(3, 7), // should be 4 x 7
            CoeffMatrix::zeros(4, 7),
            CoeffMatrix::zeros(4, 7),
        )
        .unwrap_err();
        assert!(err.contains("U must have"));
    }

    #[test]
    fn mismatched_rank_is_rejected() {
        let err = FmmAlgorithm::new(
            "bad",
            (1, 1, 1),
            CoeffMatrix::zeros(1, 2),
            CoeffMatrix::zeros(1, 3),
            CoeffMatrix::zeros(1, 2),
        )
        .unwrap_err();
        assert!(err.contains("column count"));
    }

    #[test]
    fn invalid_coefficients_fail_brent() {
        // "Algorithm" claiming C = 2·A·B for scalars: violates Brent.
        let err = FmmAlgorithm::new(
            "bad",
            (1, 1, 1),
            CoeffMatrix::from_rows(1, 1, vec![1.0]),
            CoeffMatrix::from_rows(1, 1, vec![1.0]),
            CoeffMatrix::from_rows(1, 1, vec![2.0]),
        )
        .unwrap_err();
        assert!(err.contains("Brent"), "{err}");
    }

    #[test]
    fn json_roundtrip_preserves_and_reverifies() {
        let a = classical_1x1();
        let json = a.to_json();
        let b = FmmAlgorithm::from_json(&json).unwrap();
        assert_eq!(b.dims(), a.dims());
        assert_eq!(b.rank(), a.rank());
    }

    #[test]
    fn corrupted_json_fails_verification() {
        let a = classical_1x1();
        let json = a.to_json().replace("1.0", "2.0");
        assert!(FmmAlgorithm::from_json(&json).is_err());
    }

    #[test]
    fn display_mentions_dims_and_rank() {
        let s = classical_1x1().to_string();
        assert!(s.contains("<1,1,1>"));
        assert!(s.contains("R=1"));
    }
}
