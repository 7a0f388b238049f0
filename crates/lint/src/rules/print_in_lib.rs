//! `print-in-lib`: library crates do not own stdout.

use crate::report::Finding;
use crate::rules::{finding, Rule};
use crate::source::SourceFile;

/// Printing macros that bypass structured output.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Flags `println!` / `eprintln!` / `dbg!` in library targets.
///
/// The CLI and the bench binaries own the terminal; a library that
/// prints corrupts machine-readable output (`--format json` documents,
/// the metrics snapshot, the serve wire protocol) and is invisible to
/// the telemetry pipeline. Libraries return data or record metrics;
/// binaries print. (`rchls-cli`'s command layer is the designated
/// printer and is exempted in `lint.toml`.)
pub struct PrintInLib;

impl Rule for PrintInLib {
    fn id(&self) -> &'static str {
        "print-in-lib"
    }

    fn teach(&self) -> &'static str {
        "libraries return data or record telemetry; printing belongs to binaries, and \
         stray output corrupts machine-readable documents"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.is_bin {
            return;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let is_macro = PRINT_MACROS.iter().any(|m| toks[i].is_ident(m))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if is_macro {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    format!(
                        "`{}!` in a library target writes to the terminal behind the \
                         caller's back; return the data or record a metric instead",
                        toks[i].text
                    ),
                ));
            }
        }
    }
}
