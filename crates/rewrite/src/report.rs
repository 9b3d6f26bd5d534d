//! The human summary `sso optimize` prints; its `--json` document is
//! built in the root package's `json` module.

use crate::optimize::OptimizeOutcome;

/// Human summary for the default (non-`--json`) output mode.
pub fn render_summary(o: &OptimizeOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "optimized {} statement{} in {} cluster{}\n",
        o.statements,
        if o.statements == 1 { "" } else { "s" },
        o.clusters.len(),
        if o.clusters.len() == 1 { "" } else { "s" },
    ));
    for c in &o.clusters {
        let members: Vec<String> = c.members.iter().map(|i| (i + 1).to_string()).collect();
        out.push_str(&format!("  {} <- statements {}\n", c.stream, members.join(", ")));
        if !c.prefilter.is_empty() {
            let texts: Vec<String> = c.prefilter.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("    shared prefilter: {}\n", texts.join(" AND ")));
        }
        for g in &c.groups {
            if g.statements.len() >= 2 {
                let stmts: Vec<String> = g.statements.iter().map(|i| (i + 1).to_string()).collect();
                let status = if g.mergeable { "deduplicated" } else { "blocked (W303)" };
                out.push_str(&format!(
                    "    identical plans: statements {} [{status}]\n",
                    stmts.join(", ")
                ));
            }
        }
    }
    if o.certificate.is_empty() {
        out.push_str("no rewrites applied; certificate is empty\n");
    } else {
        out.push_str(&format!(
            "certificate: {} step{}, checksum {:016x}\n",
            o.certificate.steps.len(),
            if o.certificate.steps.len() == 1 { "" } else { "s" },
            o.certificate.checksum
        ));
        for s in &o.certificate.steps {
            out.push_str(&format!(
                "  {} on {} ({} side condition{} discharged)\n",
                s.rule,
                s.statements.iter().map(|i| (i + 1).to_string()).collect::<Vec<_>>().join(", "),
                s.side_conditions.len(),
                if s.side_conditions.len() == 1 { "" } else { "s" }
            ));
        }
    }
    out.push_str(&format!(
        "re-audit: {} ({} statement{}, total state {})\n",
        if o.reaudit.ok { "ok" } else { "FAILED" },
        o.reaudit.statements,
        if o.reaudit.statements == 1 { "" } else { "s" },
        o.reaudit.total_state_bytes
    ));
    out
}
