//! Output checks. Every scenario a run executes is one attempt; an
//! attempt fails when any check on its output fails, and each failure is
//! reported on stderr as a finding.

use gossip_sim::SimResult;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub findings: Vec<String>,
}

impl Checks {
    /// Count one attempted scenario, failed if `failures` is non-empty.
    pub fn record(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                let finding = format!("{what}: {f}");
                eprintln!("check failed: {finding}");
                self.findings.push(finding);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The failure when a re-run's output differs from the earlier run's.
pub fn differs(what: &str, expected: &str, actual: &str) -> Option<String> {
    (expected != actual).then(|| format!("{what} differs:\n  {expected}\n  {actual}"))
}

/// The checks every result must pass: it completed, its connections
/// account (`total = productive + wasted`), and every node that should
/// hold every rumor does (all nodes on static runs, the surviving nodes
/// under churn).
pub fn result_failures(r: &SimResult) -> Vec<String> {
    let expected_complete = r.dynamics.as_ref().map_or(r.nodes, |d| d.final_alive);
    accounting_failures(
        r.completed,
        r.total_connections as u64,
        r.productive_connections as u64,
        r.wasted_connections as u64,
        r.complete_nodes as u64,
        expected_complete as u64,
    )
}

/// [`result_failures`] over an emitted run line (the pool's output).
pub fn line_failures(line: &str) -> Vec<String> {
    let num = |key: &str| field_u64(line, key);
    let (Some(total), Some(productive), Some(wasted), Some(complete), Some(nodes)) = (
        num("total_connections"),
        num("productive_connections"),
        num("wasted_connections"),
        num("complete_nodes"),
        num("nodes"),
    ) else {
        return vec![format!("unparseable run line: {line}")];
    };
    let expected = num("final_alive").unwrap_or(nodes);
    accounting_failures(
        line.contains("\"completed\":true"),
        total,
        productive,
        wasted,
        complete,
        expected,
    )
}

fn accounting_failures(
    completed: bool,
    total: u64,
    productive: u64,
    wasted: u64,
    complete: u64,
    expected_complete: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !completed {
        failures.push("did not complete".to_string());
    }
    if total != productive + wasted {
        failures.push(format!(
            "total {total} != productive {productive} + wasted {wasted}"
        ));
    }
    if complete != expected_complete {
        failures.push(format!(
            "complete_nodes {complete} != expected {expected_complete}"
        ));
    }
    failures
}

/// The unsigned integer field `key` of a flat JSON line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: &str = &line[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// A run line without its execution metadata (`threads`, `wall_ms`), the
/// part that must be byte-identical across repeats and thread counts.
pub fn strip_meta(line: &str) -> &str {
    line.find(",\"threads\":").map_or(line, |at| &line[..at])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_checked_and_stripped() {
        let ok = r#"{"schema":1,"nodes":4,"completed":true,"total_connections":5,"productive_connections":3,"wasted_connections":2,"complete_nodes":4,"threads":2,"wall_ms":7}"#;
        assert!(line_failures(ok).is_empty());
        assert_eq!(field_u64(ok, "wall_ms"), Some(7));
        assert!(strip_meta(ok).ends_with("\"complete_nodes\":4"));
        let bad = ok.replace("\"wasted_connections\":2", "\"wasted_connections\":1");
        assert_eq!(line_failures(&bad).len(), 1);
        let mut checks = Checks::default();
        checks.record("a", line_failures(&bad));
        checks.record("b", differs("repeat", "x", "x").into_iter().collect());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(differs("repeat", "x", "y").is_some());
    }
}
