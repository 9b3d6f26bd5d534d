//! Report rendering for `sso optimize`: one-line-per-object JSON (the
//! `--json` machine interface, schema-pinned in tests/audit.rs) and a human
//! summary.

use crate::optimize::OptimizeOutcome;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn str_or_null(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".to_string(),
    }
}

fn nums_1based(indices: &[usize]) -> String {
    let v: Vec<String> = indices.iter().map(|i| (i + 1).to_string()).collect();
    format!("[{}]", v.join(","))
}

/// Render the whole outcome as one JSON object:
/// `{"report":{...},"diagnostics":[...]}`.
pub fn outcome_to_json(o: &OptimizeOutcome) -> String {
    let clusters: Vec<String> = o
        .clusters
        .iter()
        .map(|c| {
            let groups: Vec<String> = c
                .groups
                .iter()
                .map(|g| {
                    format!(
                        "{{\"statements\":{},\"hash\":\"{:016x}\",\"canonical\":\"{}\",\
                         \"mergeable\":{},\"blocked\":{}}}",
                        nums_1based(&g.statements),
                        g.hash,
                        esc(&g.canonical),
                        g.mergeable,
                        str_or_null(&g.blocked)
                    )
                })
                .collect();
            let prefilter = if c.prefilter.is_empty() {
                "null".to_string()
            } else {
                let texts: Vec<String> =
                    c.prefilter.iter().map(|p| format!("\"{}\"", esc(&p.to_string()))).collect();
                format!("[{}]", texts.join(","))
            };
            format!(
                "{{\"stream\":\"{}\",\"members\":{},\"shared_prefilter\":{},\"groups\":[{}]}}",
                esc(&c.stream),
                nums_1based(&c.members),
                prefilter,
                groups.join(",")
            )
        })
        .collect();

    let steps: Vec<String> = o
        .certificate
        .steps
        .iter()
        .map(|s| {
            let before: Vec<String> = s.before.iter().map(|h| format!("\"{h:016x}\"")).collect();
            let conds: Vec<String> =
                s.side_conditions.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!(
                "{{\"rule\":\"{}\",\"statements\":{},\"before\":[{}],\"after\":\"{:016x}\",\
                 \"side_conditions\":[{}]}}",
                esc(&s.rule),
                nums_1based(&s.statements),
                before.join(","),
                s.after,
                conds.join(",")
            )
        })
        .collect();

    let shared: Vec<String> = o
        .shared
        .iter()
        .map(|p| {
            let groups: Vec<String> = p
                .groups
                .iter()
                .map(|g| {
                    let consumers: Vec<String> =
                        g.consumers.iter().map(|c| format!("\"{}\"", esc(c))).collect();
                    format!(
                        "{{\"representative\":{},\"consumers\":[{}]}}",
                        g.representative + 1,
                        consumers.join(",")
                    )
                })
                .collect();
            let prefilter = match &p.prefilter {
                Some(ast) => format!("\"{}\"", esc(&ast.to_string())),
                None => "null".to_string(),
            };
            format!(
                "{{\"stream\":\"{}\",\"prefilter\":{},\"groups\":[{}]}}",
                esc(&p.stream),
                prefilter,
                groups.join(",")
            )
        })
        .collect();

    let diags: Vec<String> = o.diagnostics.iter().map(|d| d.to_json()).collect();

    format!(
        "{{\"report\":{{\"statements\":{},\"skipped\":{},\"clusters\":[{}],\
         \"certificate\":{{\"checksum\":\"{:016x}\",\"steps\":[{}]}},\"shared\":[{}],\
         \"reaudit\":{{\"ok\":{},\"total_state_bytes\":{},\"statements\":{}}}}},\
         \"diagnostics\":[{}]}}",
        o.statements,
        nums_1based(&o.skipped),
        clusters.join(","),
        o.certificate.checksum,
        steps.join(","),
        shared.join(","),
        o.reaudit.ok,
        o.reaudit.total_state_bytes.to_json(),
        o.reaudit.statements,
        diags.join(",")
    )
}

/// Human summary for the default (non-JSON) output mode.
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
