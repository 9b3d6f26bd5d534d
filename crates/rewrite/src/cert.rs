//! Rewrite certificates: a checked trace of every rewrite the
//! optimizer applied.
//!
//! A certificate is *consumed*, not decorative: the only way to obtain
//! executable shared-plan components from an
//! [`crate::OptimizeOutcome`] is through an accessor that verifies the
//! certificate first, so a tampered or hand-edited trace can never
//! reach the execution engines. Each step records the rule applied, the
//! statements involved, the canonical node hashes before and after, and
//! the side conditions that were actually discharged (purity, totality,
//! implication, shard-mergeability) — the reviewer-facing half of the
//! equivalence argument in DESIGN.md.

use sso_types::wire::checksum;

/// One applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteStep {
    /// Rule name (e.g. `dedup-shared-subplan`, `hoist-shared-prefilter`).
    pub rule: String,
    /// 0-based indices of the statements the rule touched.
    pub statements: Vec<usize>,
    /// Canonical node hashes of the inputs, one per statement.
    pub before: Vec<u64>,
    /// Canonical node hash of the rewritten shared node.
    pub after: u64,
    /// The side conditions discharged when the rule fired.
    pub side_conditions: Vec<String>,
}

impl RewriteStep {
    /// A canonical one-line rendering, folded into the certificate
    /// checksum.
    fn digest_line(&self) -> String {
        let before: Vec<String> = self.before.iter().map(|h| format!("{h:016x}")).collect();
        format!(
            "{}|{:?}|{}|{:016x}|{}",
            self.rule,
            self.statements,
            before.join(","),
            self.after,
            self.side_conditions.join(";")
        )
    }
}

/// The checked rewrite trace for one optimized file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteCertificate {
    /// Applied rewrites, in application order.
    pub steps: Vec<RewriteStep>,
    /// FNV-1a over the canonical step renderings; recomputed by
    /// [`RewriteCertificate::verify`].
    pub checksum: u64,
}

impl RewriteCertificate {
    /// Seal a trace: compute and embed the checksum.
    pub fn seal(steps: Vec<RewriteStep>) -> Self {
        let checksum = Self::compute(&steps);
        RewriteCertificate { steps, checksum }
    }

    fn compute(steps: &[RewriteStep]) -> u64 {
        let mut text = String::new();
        for s in steps {
            text.push_str(&s.digest_line());
            text.push('\n');
        }
        checksum(text.as_bytes())
    }

    /// Recompute the checksum and compare: any mutation of a sealed
    /// step — rule name, statement set, hashes, or a side condition —
    /// is detected.
    pub fn verify(&self) -> Result<(), String> {
        let expect = Self::compute(&self.steps);
        if expect == self.checksum {
            Ok(())
        } else {
            Err(format!(
                "rewrite certificate checksum mismatch: recorded {:016x}, recomputed {expect:016x}",
                self.checksum
            ))
        }
    }

    /// No rewrites were applied.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> RewriteStep {
        RewriteStep {
            rule: "dedup-shared-subplan".into(),
            statements: vec![0, 3],
            before: vec![0xabc, 0xabc],
            after: 0xabc,
            side_conditions: vec!["canonical forms identical".into(), "shard-mergeable".into()],
        }
    }

    #[test]
    fn sealed_certificates_verify() {
        assert!(RewriteCertificate::seal(vec![]).verify().is_ok());
        assert!(RewriteCertificate::seal(vec![step()]).verify().is_ok());
    }

    #[test]
    fn tampering_is_detected() {
        let mut c = RewriteCertificate::seal(vec![step()]);
        c.steps[0].side_conditions.pop();
        assert!(c.verify().is_err(), "dropped side condition");

        let mut c = RewriteCertificate::seal(vec![step()]);
        c.steps[0].after ^= 1;
        assert!(c.verify().is_err(), "flipped node hash");

        let mut c = RewriteCertificate::seal(vec![step()]);
        c.steps.clear();
        assert!(c.verify().is_err(), "erased trace");
    }
}
