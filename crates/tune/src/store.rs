//! Shape classes: the power-of-two buckets the decision audit aggregates
//! predicted-vs-measured samples under.

/// A problem-shape equivalence class: each dimension bucketed to the
/// nearest power of two, so `500×500×500` and `512×512×512` share one
/// audit row while `512³` and `4096³` do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// Bucketed `m`.
    pub m: usize,
    /// Bucketed `k`.
    pub k: usize,
    /// Bucketed `n`.
    pub n: usize,
}

impl ShapeClass {
    /// Classify a problem shape.
    pub fn of(m: usize, k: usize, n: usize) -> Self {
        Self { m: bucket(m), k: bucket(k), n: bucket(n) }
    }

    /// Canonical label, e.g. `"512x512x512"` — the key the audit exports.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }

    /// Parse a [`ShapeClass::label`]-shaped string (`"512x512x512"`).
    /// Returns `None` for anything malformed; dims are re-bucketed so a
    /// hostile label still yields a canonical class.
    pub fn from_label(label: &str) -> Option<Self> {
        let mut parts = label.split('x');
        let m = parts.next()?.parse::<usize>().ok()?;
        let k = parts.next()?.parse::<usize>().ok()?;
        let n = parts.next()?.parse::<usize>().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self::of(m, k, n))
    }
}

/// Nearest power of two (in log space), 0 for degenerate zero dims.
fn bucket(d: usize) -> usize {
    if d == 0 {
        return 0;
    }
    let exp = (d as f64).log2().round() as u32;
    1usize << exp.min(62)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_class_buckets_to_powers_of_two() {
        assert_eq!(ShapeClass::of(512, 512, 512), ShapeClass { m: 512, k: 512, n: 512 });
        assert_eq!(ShapeClass::of(500, 300, 90), ShapeClass { m: 512, k: 256, n: 64 });
        assert_eq!(ShapeClass::of(1, 0, 3), ShapeClass { m: 1, k: 0, n: 4 });
        assert_eq!(ShapeClass::of(768, 768, 768).label(), "1024x1024x1024");
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for class in
            [ShapeClass::of(512, 512, 512), ShapeClass::of(500, 300, 90), ShapeClass::of(1, 0, 3)]
        {
            assert_eq!(ShapeClass::from_label(&class.label()), Some(class));
        }
        // Non-canonical dims are re-bucketed, not trusted.
        assert_eq!(ShapeClass::from_label("500x300x90"), Some(ShapeClass::of(500, 300, 90)));
        // Malformed labels are misses, never panics.
        for bad in ["", "512", "512x512", "512x512x512x512", "axbxc", "512x-1x512", "512x512x"] {
            assert_eq!(ShapeClass::from_label(bad), None, "{bad:?} must not parse");
        }
    }
}
