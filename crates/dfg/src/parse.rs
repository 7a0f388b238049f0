//! A small line-oriented textual DFG format.
//!
//! The format has three line types (blank lines and `#` comments are
//! ignored):
//!
//! ```text
//! graph <name>
//! op <label> <kind>        # kind: add | sub | mul | div | cmp
//! <label> -> <label>       # data dependence
//! ```
//!
//! The `graph` directive is optional (the graph is called `unnamed`
//! without it) but, when present, must be the **first** directive and
//! appear at most once — a duplicate or late `graph` line is a parse
//! error with its line number.
//!
//! [`Dfg::to_text`] prints this format back; `parse_dfg(dfg.to_text())`
//! reconstructs the graph exactly (nodes in id order, edges grouped by
//! source).

use crate::error::ParseDfgError;
use crate::graph::Dfg;
use crate::op::OpKind;

/// Parses the textual DFG format described in the module docs.
///
/// # Errors
///
/// Returns a [`ParseDfgError`] pinpointing the first malformed line,
/// unknown operation kind, duplicate label, unknown edge endpoint, or
/// dependence cycle — or a text that declares no operation at all (an
/// empty graph has no design to synthesize).
///
/// # Examples
///
/// ```
/// let text = "graph tiny\nop a add\nop b mul\na -> b\n";
/// let dfg = rchls_dfg::parse_dfg(text)?;
/// assert_eq!(dfg.name(), "tiny");
/// assert_eq!(dfg.node_count(), 2);
/// # Ok::<(), rchls_dfg::ParseDfgError>(())
/// ```
pub fn parse_dfg(text: &str) -> Result<Dfg, ParseDfgError> {
    let mut dfg = Dfg::new("unnamed");
    // The `graph` directive is only legal as the first directive, once:
    // accepting it anywhere would silently rename the graph mid-parse.
    let mut named_at: Option<usize> = None;
    let mut body_started = false;
    let err = |line: usize, message: String| ParseDfgError { line, message };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["graph", name] => {
                if let Some(first) = named_at {
                    return Err(err(
                        lineno,
                        format!("duplicate `graph` directive (first named at line {first})"),
                    ));
                }
                if body_started {
                    return Err(err(
                        lineno,
                        "`graph` directive must precede all op and edge lines".to_owned(),
                    ));
                }
                named_at = Some(lineno);
                dfg = Dfg::new(*name);
            }
            ["op", label, kind] => {
                body_started = true;
                let kind = OpKind::from_mnemonic(kind)
                    .ok_or_else(|| err(lineno, format!("unknown op kind {kind:?}")))?;
                dfg.try_add_node(kind, *label)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            [from, "->", to] => {
                body_started = true;
                let f = dfg
                    .node_by_label(from)
                    .ok_or_else(|| err(lineno, format!("unknown node {from:?}")))?;
                let t = dfg
                    .node_by_label(to)
                    .ok_or_else(|| err(lineno, format!("unknown node {to:?}")))?;
                // Name the ops by the labels the file used, not the
                // internal node ids `DfgError`'s display would show.
                dfg.add_edge(f, t).map_err(|e| {
                    let message = match e {
                        crate::DfgError::SelfLoop(_) => {
                            format!("self-loop on op {from:?} is not allowed")
                        }
                        crate::DfgError::DuplicateEdge(..) => {
                            format!("edge {from:?} -> {to:?} already exists")
                        }
                        other => other.to_string(),
                    };
                    err(lineno, message)
                })?;
            }
            _ => return Err(err(lineno, format!("unrecognized line {line:?}"))),
        }
    }
    // Whole-graph problems have no single offending line (`line: 0`,
    // which `Display` omits). A cycle names the operation by the label
    // the file used, not the internal node id.
    if dfg.is_empty() {
        return Err(ParseDfgError {
            line: 0,
            message: "the graph has no operations; declare at least one with an \
                      `op <label> <kind>` line (kind: add, sub, mul, div or cmp)"
                .to_owned(),
        });
    }
    dfg.validate().map_err(|e| ParseDfgError {
        line: 0,
        message: match e {
            crate::DfgError::Cycle(n) => format!(
                "dependence cycle detected through op {:?}",
                dfg.node(n).label()
            ),
            other => other.to_string(),
        },
    })?;
    Ok(dfg)
}

impl Dfg {
    /// Serializes the graph to the textual format accepted by [`parse_dfg`].
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("graph {}\n", self.name());
        for node in self.nodes() {
            out.push_str(&format!("op {} {}\n", node.label(), node.kind()));
        }
        for (a, b) in self.edges() {
            out.push_str(&format!(
                "{} -> {}\n",
                self.node(a).label(),
                self.node(b).label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip() {
        let text = "graph t\nop a add\nop b mul\nop c sub\na -> b\nb -> c\n";
        let g = parse_dfg(text).unwrap();
        assert_eq!(g.name(), "t");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let again = parse_dfg(&g.to_text()).unwrap();
        assert_eq!(again.node_count(), 3);
        assert_eq!(again.edge_count(), 2);
        assert_eq!(again.name(), "t");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\ngraph t\nop a add # trailing\n";
        let g = parse_dfg(text).unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn duplicate_graph_directive_is_rejected_with_both_lines() {
        let e = parse_dfg("graph a\nop x add\ngraph b\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate"));
        assert!(e.message.contains("line 1"));
        // Even back-to-back renames (no body between) are duplicates.
        let e = parse_dfg("graph a\ngraph b\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn late_graph_directive_is_rejected_with_line() {
        let e = parse_dfg("op x add\ngraph late\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("must precede"));
        // After an edge line too.
        let e = parse_dfg("op x add\nop y add\nx -> y\ngraph late\n").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn missing_graph_directive_parses_as_unnamed() {
        let g = parse_dfg("op a add\n").unwrap();
        assert_eq!(g.name(), "unnamed");
        // Comments and blanks before `graph` are fine — it is the first
        // *directive*, not the first line.
        let g = parse_dfg("# header\n\ngraph named\nop a add\n").unwrap();
        assert_eq!(g.name(), "named");
    }

    #[test]
    fn graphs_without_operations_are_rejected() {
        for text in ["", "# nothing here\n\n", "graph empty\n"] {
            let e = parse_dfg(text).unwrap_err();
            assert_eq!(e.line, 0, "{text:?}");
            assert!(e.message.contains("no operations"), "{text:?}: {e}");
            assert!(e.message.contains("op <label> <kind>"), "{text:?}: {e}");
        }
    }

    #[test]
    fn unknown_kind_is_reported_with_line() {
        let e = parse_dfg("op a frobnicate\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn unknown_edge_endpoint() {
        let e = parse_dfg("op a add\na -> ghost\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse_dfg("op a add\nop a add\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn cycle_rejected() {
        let e = parse_dfg("op a add\nop b add\na -> b\nb -> a\n").unwrap_err();
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn cycle_names_a_label_without_a_bogus_line() {
        let e = parse_dfg("op up add\nop down add\nup -> down\ndown -> up\n").unwrap_err();
        assert_eq!(e.line, 0);
        // The display names an op by the label the file used and omits
        // the meaningless `line 0:` prefix.
        assert_eq!(e.to_string(), "dependence cycle detected through op \"up\"");
        // Per-edge errors name labels the same way.
        let e = parse_dfg("op up add\nup -> up\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 2: self-loop on op \"up\" is not allowed"
        );
        let e = parse_dfg("op up add\nop down add\nup -> down\nup -> down\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 4: edge \"up\" -> \"down\" already exists"
        );
    }

    #[test]
    fn garbage_line_rejected() {
        let e = parse_dfg("what is this\n").unwrap_err();
        assert_eq!(e.line, 1);
    }
}
