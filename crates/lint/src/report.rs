//! Findings and the two output formats.
//!
//! Human output is `path:line:col: [rule] message` plus the offending
//! line; `--format json` emits a schema-versioned document (the same
//! discipline as the `rchls metrics` snapshot) that CI uploads as the
//! `invariants` artifact. Both orderings are deterministic: findings
//! sort by `(path, line, col, rule)`.

use serde::Value;

/// Version stamped into JSON findings documents.
pub const LINT_SCHEMA_VERSION: u64 = 1;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The stable rule id.
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (chars).
    pub col: u32,
    /// The teaching message for this site.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// One pragma-suppressed site, kept in the JSON document so review can
/// audit every justified exemption without grepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The rule that would have fired.
    pub rule: String,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The pragma's mandatory reason.
    pub reason: String,
}

/// The complete result of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Files analyzed.
    pub files_scanned: usize,
    /// Violations, sorted `(path, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Justified exemptions, same order.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// `true` when the workspace is lint-clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n",
                f.path, f.line, f.col, f.rule, f.message, f.snippet
            ));
        }
        out.push_str(&format!(
            "rchls-lint: {} finding(s), {} suppressed, {} file(s) scanned\n",
            self.findings.len(),
            self.suppressed.len(),
            self.files_scanned
        ));
        out
    }

    /// The schema-versioned JSON document.
    #[must_use]
    pub fn render_json(&self) -> String {
        let key = |k: &str| Value::Str(k.to_owned());
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::Map(vec![
                    (key("rule"), Value::Str(f.rule.to_owned())),
                    (key("path"), Value::Str(f.path.clone())),
                    (key("line"), Value::UInt(u64::from(f.line))),
                    (key("col"), Value::UInt(u64::from(f.col))),
                    (key("message"), Value::Str(f.message.clone())),
                    (key("snippet"), Value::Str(f.snippet.clone())),
                ])
            })
            .collect();
        let suppressed = self
            .suppressed
            .iter()
            .map(|s| {
                Value::Map(vec![
                    (key("rule"), Value::Str(s.rule.clone())),
                    (key("path"), Value::Str(s.path.clone())),
                    (key("line"), Value::UInt(u64::from(s.line))),
                    (key("reason"), Value::Str(s.reason.clone())),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            (key("schema_version"), Value::UInt(LINT_SCHEMA_VERSION)),
            (key("tool"), Value::Str("rchls-lint".to_owned())),
            (key("files_scanned"), Value::UInt(self.files_scanned as u64)),
            (key("clean"), Value::Bool(self.is_clean())),
            (key("findings"), Value::Seq(findings)),
            (key("suppressed"), Value::Seq(suppressed)),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_owned())
    }
}
