//! The cost model of §3.2 (stationary computing) and §3.3 (mobile
//! computing).
//!
//! Servicing a request consumes three kinds of resources:
//!
//! * **control messages** (request / invalidate messages) — unit cost `cc`;
//! * **data messages** (the object in transit) — unit cost `cd`;
//! * **I/O operations** (reading/writing the object in a local database) —
//!   unit cost `cio`, normalized to `1` in stationary computing and `0` in
//!   mobile computing (wireless charges dominate, disk I/O is free).
//!
//! Costs are accounted *exactly* as integer tallies ([`CostVector`]) and
//! only converted to scalars by [`CostVector::eval`]. That lets the
//! message-level protocol simulator be cross-checked bit-for-bit against the
//! analytic cost engine, with no floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Which of the paper's two cost models is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Stationary computing (§3.2): `cio = 1` (costs normalized to one I/O).
    Stationary,
    /// Mobile computing (§3.3): `cio = 0` (only messages are billed).
    Mobile,
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Environment::Stationary => write!(f, "SC"),
            Environment::Mobile => write!(f, "MC"),
        }
    }
}

/// The unit costs `(cc, cd, cio)` of the homogeneous system model.
///
/// Invariants enforced at construction:
/// * all costs are finite and non-negative;
/// * `cc ≤ cd` — a data message carries the control header *plus* the
///   object, so it cannot be cheaper (the "Cannot be true" region of
///   Figures 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    cc: f64,
    cd: f64,
    cio: f64,
    env: Environment,
}

impl CostModel {
    /// A stationary-computing model with `cio = 1`.
    ///
    /// Returns an error string if the parameters are invalid.
    pub fn stationary(cc: f64, cd: f64) -> Result<Self, CostModelError> {
        Self::with_io(cc, cd, 1.0, Environment::Stationary)
    }

    /// A mobile-computing model with `cio = 0`.
    pub fn mobile(cc: f64, cd: f64) -> Result<Self, CostModelError> {
        Self::with_io(cc, cd, 0.0, Environment::Mobile)
    }

    fn with_io(cc: f64, cd: f64, cio: f64, env: Environment) -> Result<Self, CostModelError> {
        if !cc.is_finite() || !cd.is_finite() || cc < 0.0 || cd < 0.0 {
            return Err(CostModelError::Negative { cc, cd });
        }
        if cc > cd {
            return Err(CostModelError::ControlExceedsData { cc, cd });
        }
        Ok(CostModel { cc, cd, cio, env })
    }

    /// Control-message unit cost.
    #[inline]
    pub fn cc(&self) -> f64 {
        self.cc
    }

    /// Data-message unit cost.
    #[inline]
    pub fn cd(&self) -> f64 {
        self.cd
    }

    /// I/O unit cost (1 in SC, 0 in MC).
    #[inline]
    pub fn cio(&self) -> f64 {
        self.cio
    }

    /// Which environment this model belongs to.
    #[inline]
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// The paper's competitiveness factor of SA in this model (Theorem 1):
    /// `1 + cc + cd` in SC; `None` in MC, where SA is not competitive
    /// (Proposition 3).
    pub fn sa_bound(&self) -> Option<f64> {
        match self.env {
            Environment::Stationary => Some(1.0 + self.cc + self.cd),
            Environment::Mobile => None,
        }
    }

    /// The paper's competitiveness factor of DA in this model:
    /// * SC, `cd > 1`: `2 + cc` (Theorem 3);
    /// * SC, otherwise: `2 + 2·cc` (Theorem 2);
    /// * MC: `2 + 3·cc/cd` (Theorem 4), which is ≤ 5 since `cc ≤ cd`.
    ///
    /// Returns `None` only for the degenerate MC model with `cd = 0`
    /// (all costs zero — competitiveness is vacuous).
    pub fn da_bound(&self) -> Option<f64> {
        match self.env {
            Environment::Stationary => {
                if self.cd > 1.0 {
                    Some(2.0 + self.cc)
                } else {
                    Some(2.0 + 2.0 * self.cc)
                }
            }
            Environment::Mobile => {
                if self.cd == 0.0 {
                    None
                } else {
                    Some(2.0 + 3.0 * self.cc / self.cd)
                }
            }
        }
    }
}

/// Invalid [`CostModel`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModelError {
    /// A cost was negative, NaN or infinite.
    Negative {
        /// offered control cost
        cc: f64,
        /// offered data cost
        cd: f64,
    },
    /// `cc > cd`: a data message cannot be cheaper than a control message.
    ControlExceedsData {
        /// offered control cost
        cc: f64,
        /// offered data cost
        cd: f64,
    },
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::Negative { cc, cd } => {
                write!(
                    f,
                    "costs must be finite and non-negative (cc={cc}, cd={cd})"
                )
            }
            CostModelError::ControlExceedsData { cc, cd } => write!(
                f,
                "cc={cc} > cd={cd}: a data message includes the control fields \
                 plus the object, so it cannot cost less (paper Fig. 1, \
                 'Cannot be true' region)"
            ),
        }
    }
}

impl std::error::Error for CostModelError {}

/// Exact resource tallies: how many control messages, data messages and
/// I/O operations an execution consumed.
///
/// Scalar cost is obtained by [`CostVector::eval`]:
/// `control·cc + data·cd + io·cio`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CostVector {
    /// Number of control messages (requests, invalidations).
    pub control: u64,
    /// Number of data messages (object transmissions).
    pub data: u64,
    /// Number of local-database I/O operations (inputs and outputs).
    pub io: u64,
}

impl CostVector {
    /// The zero vector.
    pub const ZERO: CostVector = CostVector {
        control: 0,
        data: 0,
        io: 0,
    };

    /// Constructs a tally.
    pub const fn new(control: u64, data: u64, io: u64) -> Self {
        CostVector { control, data, io }
    }

    /// Scalar cost under a model: `control·cc + data·cd + io·cio`.
    #[inline]
    pub fn eval(&self, model: &CostModel) -> f64 {
        self.control as f64 * model.cc + self.data as f64 * model.cd + self.io as f64 * model.cio
    }

    /// Component-wise saturating difference (used in tests to compare
    /// simulator tallies with analytic predictions).
    #[must_use]
    pub fn saturating_sub(&self, other: &CostVector) -> CostVector {
        CostVector {
            control: self.control.saturating_sub(other.control),
            data: self.data.saturating_sub(other.data),
            io: self.io.saturating_sub(other.io),
        }
    }

    /// Whether all tallies are zero.
    pub fn is_zero(&self) -> bool {
        *self == CostVector::ZERO
    }
}

impl Add for CostVector {
    type Output = CostVector;
    fn add(self, rhs: CostVector) -> CostVector {
        CostVector {
            control: self.control + rhs.control,
            data: self.data + rhs.data,
            io: self.io + rhs.io,
        }
    }
}

impl AddAssign for CostVector {
    fn add_assign(&mut self, rhs: CostVector) {
        self.control += rhs.control;
        self.data += rhs.data;
        self.io += rhs.io;
    }
}

impl Sum for CostVector {
    fn sum<I: Iterator<Item = CostVector>>(iter: I) -> CostVector {
        iter.fold(CostVector::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cc + {}cd + {}io", self.control, self.data, self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_construction_and_validation() {
        let sc = CostModel::stationary(0.2, 0.8).unwrap();
        assert_eq!(sc.cio(), 1.0);
        assert_eq!(sc.environment(), Environment::Stationary);
        let mc = CostModel::mobile(0.2, 0.8).unwrap();
        assert_eq!(mc.cio(), 0.0);
        assert_eq!(mc.environment(), Environment::Mobile);

        assert!(matches!(
            CostModel::stationary(0.9, 0.5),
            Err(CostModelError::ControlExceedsData { .. })
        ));
        assert!(matches!(
            CostModel::stationary(-0.1, 0.5),
            Err(CostModelError::Negative { .. })
        ));
        assert!(CostModel::stationary(f64::NAN, 0.5).is_err());
        assert!(CostModel::stationary(0.1, f64::INFINITY).is_err());
        // Equal costs are allowed (the boundary of "Cannot be true").
        assert!(CostModel::stationary(0.5, 0.5).is_ok());
    }

    #[test]
    fn paper_bounds() {
        let sc = CostModel::stationary(0.3, 0.6).unwrap();
        assert!((sc.sa_bound().unwrap() - 1.9).abs() < 1e-12); // 1 + cc + cd
        assert!((sc.da_bound().unwrap() - 2.6).abs() < 1e-12); // 2 + 2cc (cd ≤ 1)

        let sc2 = CostModel::stationary(0.3, 1.5).unwrap();
        assert!((sc2.da_bound().unwrap() - 2.3).abs() < 1e-12); // 2 + cc (cd > 1)

        let mc = CostModel::mobile(0.5, 1.0).unwrap();
        assert_eq!(mc.sa_bound(), None); // Proposition 3
        assert!((mc.da_bound().unwrap() - 3.5).abs() < 1e-12); // 2 + 3cc/cd
                                                               // cc ≤ cd implies the MC bound is at most 5.
        let mc_eq = CostModel::mobile(1.0, 1.0).unwrap();
        assert!((mc_eq.da_bound().unwrap() - 5.0).abs() < 1e-12);

        let mc_zero = CostModel::mobile(0.0, 0.0).unwrap();
        assert_eq!(mc_zero.da_bound(), None);
    }

    #[test]
    fn vector_arithmetic_and_eval() {
        let a = CostVector::new(2, 1, 3);
        let b = CostVector::new(1, 0, 1);
        assert_eq!(a + b, CostVector::new(3, 1, 4));
        let mut c = a;
        c += b;
        assert_eq!(c, CostVector::new(3, 1, 4));
        let total: CostVector = vec![a, b].into_iter().sum();
        assert_eq!(total, c);

        let m = CostModel::stationary(0.5, 2.0).unwrap();
        assert!((a.eval(&m) - (2.0 * 0.5 + 1.0 * 2.0 + 3.0)).abs() < 1e-12);
        let mc = CostModel::mobile(0.5, 2.0).unwrap();
        assert!((a.eval(&mc) - (1.0 + 2.0)).abs() < 1e-12); // io free

        assert_eq!(a.saturating_sub(&b), CostVector::new(1, 1, 2));
        assert_eq!(b.saturating_sub(&a), CostVector::ZERO);
        assert!(CostVector::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn display_impls() {
        assert_eq!(Environment::Stationary.to_string(), "SC");
        assert_eq!(Environment::Mobile.to_string(), "MC");
        assert_eq!(CostVector::new(1, 2, 3).to_string(), "1cc + 2cd + 3io");
    }
}
