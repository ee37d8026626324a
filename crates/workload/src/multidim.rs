//! Multi-dimensional resource vectors (paper §IV-E).
//!
//! The base algorithm is one-dimensional. For uncorrelated resource
//! dimensions the paper prescribes applying the queuing reservation to each
//! dimension independently and falling back to plain First Fit; for
//! correlated dimensions, mapping them to one scalar first. Both paths are
//! supported here.

use crate::spec::VmSpec;

/// A small fixed-arity resource vector, e.g. `[cpu, memory, net]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceVec(pub Vec<f64>);

impl ResourceVec {
    /// Creates a vector, validating non-negativity.
    ///
    /// # Panics
    /// Panics on an empty vector or any negative component.
    pub fn new(components: Vec<f64>) -> Self {
        assert!(!components.is_empty(), "resource vector must be non-empty");
        assert!(
            components.iter().all(|&x| x >= 0.0),
            "resource components must be nonnegative: {components:?}"
        );
        Self(components)
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Component access.
    #[inline]
    pub fn get(&self, d: usize) -> f64 {
        self.0[d]
    }

    /// Componentwise sum.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub(crate) fn add(&self, other: &ResourceVec) -> ResourceVec {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        ResourceVec(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
    }

    /// Projects the vector to one dimension with the given weights —
    /// the paper's "map them to one dimension" route for correlated
    /// resources.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn project(&self, weights: &[f64]) -> f64 {
        assert_eq!(self.dims(), weights.len(), "weight dimension mismatch");
        self.0.iter().zip(weights).map(|(x, w)| x * w).sum()
    }
}

/// A VM whose base demand and spike size are resource vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDimVmSpec {
    /// Caller-assigned id.
    pub id: usize,
    /// OFF→ON switch probability (shared across dimensions — a spike
    /// raises all dimensions simultaneously, per the ON-OFF model).
    pub p_on: f64,
    /// ON→OFF switch probability.
    pub p_off: f64,
    /// Base demand per dimension.
    pub r_b: ResourceVec,
    /// Spike size per dimension.
    pub r_e: ResourceVec,
}

impl MultiDimVmSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    /// Panics on probability/dimension violations.
    pub fn new(id: usize, p_on: f64, p_off: f64, r_b: ResourceVec, r_e: ResourceVec) -> Self {
        assert!(p_on > 0.0 && p_on <= 1.0, "p_on must be in (0,1]");
        assert!(p_off > 0.0 && p_off <= 1.0, "p_off must be in (0,1]");
        assert_eq!(r_b.dims(), r_e.dims(), "r_b/r_e dimension mismatch");
        Self {
            id,
            p_on,
            p_off,
            r_b,
            r_e,
        }
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.r_b.dims()
    }

    /// Peak demand per dimension.
    pub fn r_p(&self) -> ResourceVec {
        self.r_b.add(&self.r_e)
    }

    /// The one-dimensional projection of this VM under `weights` —
    /// collapses correlated dimensions so the scalar algorithms apply.
    pub fn project(&self, weights: &[f64]) -> VmSpec {
        VmSpec::new(
            self.id,
            self.p_on,
            self.p_off,
            self.r_b.project(weights),
            self.r_e.project(weights),
        )
    }

    /// The scalar sub-problem for one dimension — used by the
    /// per-dimension reservation path.
    ///
    /// A zero base demand in some dimension is nudged to a tiny positive
    /// value so the scalar invariant `r_b > 0` holds.
    pub fn dimension(&self, d: usize) -> VmSpec {
        VmSpec::new(
            self.id,
            self.p_on,
            self.p_off,
            self.r_b.get(d).max(f64::MIN_POSITIVE),
            self.r_e.get(d),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(xs: &[f64]) -> ResourceVec {
        ResourceVec::new(xs.to_vec())
    }

    #[test]
    fn add_is_componentwise() {
        let a = rv(&[1.0, 2.0]);
        let b = rv(&[3.0, 4.0]);
        assert_eq!(a.add(&b), rv(&[4.0, 6.0]));
    }

    #[test]
    fn projection_is_weighted_sum() {
        let a = rv(&[2.0, 3.0]);
        assert_eq!(a.project(&[1.0, 2.0]), 8.0);
    }

    #[test]
    fn multidim_peak_and_dims() {
        let v = MultiDimVmSpec::new(0, 0.01, 0.09, rv(&[10.0, 4.0]), rv(&[5.0, 2.0]));
        assert_eq!(v.dims(), 2);
        assert_eq!(v.r_p(), rv(&[15.0, 6.0]));
    }

    #[test]
    fn projected_vm_keeps_switch_probabilities() {
        let v = MultiDimVmSpec::new(7, 0.02, 0.08, rv(&[10.0, 4.0]), rv(&[5.0, 2.0]));
        let s = v.project(&[0.5, 0.5]);
        assert_eq!(s.id, 7);
        assert_eq!(s.p_on, 0.02);
        assert_eq!(s.r_b, 7.0);
        assert_eq!(s.r_e, 3.5);
    }

    #[test]
    fn dimension_extracts_scalar_subproblem() {
        let v = MultiDimVmSpec::new(1, 0.01, 0.09, rv(&[10.0, 4.0]), rv(&[5.0, 2.0]));
        let d1 = v.dimension(1);
        assert_eq!(d1.r_b, 4.0);
        assert_eq!(d1.r_e, 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = rv(&[1.0]).add(&rv(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_component_panics() {
        let _ = rv(&[1.0, -0.1]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_panics() {
        let _ = ResourceVec::new(vec![]);
    }
}
