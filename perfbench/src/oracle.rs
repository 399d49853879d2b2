//! Bit-for-bit verification against the sequential program.

use serve::field_checksum;
use solver::sequential::{SequentialApp, SequentialResult};

/// What a correct solve of one (root, level, tol) must reproduce exactly:
/// the FNV-1a checksum of the combined field and the `l2_error` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oracle {
    pub checksum: u64,
    pub l2_bits: u64,
}

impl Oracle {
    pub fn of(result: &SequentialResult) -> Oracle {
        Oracle {
            checksum: field_checksum(&result.combined),
            l2_bits: result.l2_error.to_bits(),
        }
    }

    /// Run the legacy sequential program once and keep its witness.
    pub fn solve(app: &SequentialApp) -> (Oracle, SequentialResult) {
        let result = app.run().expect("the sequential oracle must solve");
        (Oracle::of(&result), result)
    }

    pub fn matches(&self, combined: &[f64], l2_error: f64) -> bool {
        field_checksum(combined) == self.checksum && l2_error.to_bits() == self.l2_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    #[test]
    fn a_corrupted_oracle_counts_as_a_failure() {
        let app = SequentialApp::new(1, 2, 1e-3);
        let (oracle, result) = Oracle::solve(&app);
        let mut report = Report::default();
        report.record(oracle.matches(&result.combined, result.l2_error));
        assert!(report.correct());

        let corrupted = Oracle {
            checksum: oracle.checksum ^ 1,
            ..oracle
        };
        report.record(corrupted.matches(&result.combined, result.l2_error));
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(!report.correct());

        // One flipped bit in the field or in the error is also caught.
        let mut field = result.combined.clone();
        field[0] = f64::from_bits(field[0].to_bits() ^ 1);
        assert!(!oracle.matches(&field, result.l2_error));
        assert!(!oracle.matches(&result.combined, f64::from_bits(oracle.l2_bits ^ 1)));
    }
}
