//! The open workload-ingestion API: the [`WorkloadSource`] trait, the
//! process-global source registry, and the workload spec grammar.
//!
//! A *workload spec* is a string of the form `scheme:rest`, resolved
//! through the registry exactly like the pass/strategy ids of
//! `rchls_core::flow`. Three sources ship built in:
//!
//! * `builtin:<name>` — the named paper benchmark (`builtin:fir16`); a
//!   spec with no scheme at all is shorthand for this (`fir16`);
//! * `random:<nodes>x<layers>[@<seed>]` — the seeded layered-DAG
//!   generator ([`crate::random_layered_dfg`]); the seed defaults to 0
//!   and is always echoed in the canonical spec so any randomized run is
//!   reproducible from its report alone;
//! * `file:<path>` — a file in the textual DFG format of
//!   [`rchls_dfg::parse_dfg`].
//!
//! Out-of-tree crates open new ingestion surfaces by implementing the
//! trait and calling [`register_workload_source`] once; every consumer of
//! specs (the `rchls` CLI's `--workload` flag, batch job files, the
//! engine, sweep drivers) can then name the new scheme.
//!
//! # Examples
//!
//! ```
//! let w = rchls_workloads::load_workload("random:24x4@7").unwrap();
//! assert_eq!(w.spec, "random:24x4@7");
//! assert_eq!(w.dfg.node_count(), 24);
//! // The seed is echoed even when the spec omits it.
//! assert_eq!(rchls_workloads::load_workload("random:24x4").unwrap().spec,
//!            "random:24x4@0");
//! // Bare names are builtin shorthand.
//! assert_eq!(rchls_workloads::load_workload("fir16").unwrap().spec,
//!            "builtin:fir16");
//! ```

use crate::random::{random_layered_dfg, RandomDfgConfig};
use rchls_dfg::Dfg;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// A resolved workload: the graph plus the canonical spec that rebuilds
/// it.
///
/// The canonical spec makes every implicit default explicit (e.g.
/// `random:30x6` canonicalizes to `random:30x6@0`), so echoing it in a
/// report is enough to reproduce the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The canonical spec string (`scheme:rest` with defaults spelled
    /// out).
    pub spec: String,
    /// The resolved data-flow graph.
    pub dfg: Dfg,
}

/// Resolving a workload spec failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// The offending spec (or spec fragment).
    pub spec: String,
    /// Why it was rejected.
    pub message: String,
}

impl WorkloadError {
    fn new(spec: impl Into<String>, message: impl Into<String>) -> WorkloadError {
        WorkloadError {
            spec: spec.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload {:?}: {}", self.spec, self.message)
    }
}

impl std::error::Error for WorkloadError {}

/// One workload-ingestion scheme, dispatched by the part of a spec before
/// the first `:`.
///
/// Implementations must be deterministic: the same spec must always
/// resolve to the same graph (the `file:` source is deterministic *given
/// the file's contents* — content changes are the caller's concern).
pub trait WorkloadSource: Send + Sync {
    /// The scheme this source owns (e.g. `"random"` for `random:...`
    /// specs). Must not contain `:`.
    fn scheme(&self) -> &str;

    /// A one-line human description for `rchls workloads`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// Known specs this source can name up front (the builtin source
    /// lists the benchmark roster; generative and file sources list
    /// nothing). Used by listings only.
    fn known_specs(&self) -> Vec<String> {
        Vec::new()
    }

    /// Resolves the part of a spec after the scheme into a workload.
    ///
    /// The returned [`Workload::spec`] must be canonical: parsing it
    /// again yields the same workload, with all defaults made explicit.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] describing why `rest` does not name a
    /// loadable workload.
    fn load(&self, rest: &str) -> Result<Workload, WorkloadError>;
}

/// The built-in paper benchmarks under `builtin:<name>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuiltinSource;

impl WorkloadSource for BuiltinSource {
    fn scheme(&self) -> &str {
        "builtin"
    }

    fn description(&self) -> &str {
        "the named paper benchmark (builtin:fir16); bare names are shorthand"
    }

    fn known_specs(&self) -> Vec<String> {
        crate::all_benchmarks()
            .into_iter()
            .map(|(name, _)| format!("builtin:{name}"))
            .collect()
    }

    fn load(&self, rest: &str) -> Result<Workload, WorkloadError> {
        let (_, ctor) = crate::all_benchmarks()
            .into_iter()
            .find(|(name, _)| *name == rest)
            .ok_or_else(|| {
                let roster: Vec<&str> = crate::all_benchmarks().iter().map(|(n, _)| *n).collect();
                WorkloadError::new(
                    format!("builtin:{rest}"),
                    format!("unknown benchmark (available: {})", roster.join(", ")),
                )
            })?;
        Ok(Workload {
            spec: format!("builtin:{rest}"),
            dfg: ctor(),
        })
    }
}

/// The seeded layered-DAG generator under
/// `random:<nodes>x<layers>[@<seed>]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSource;

impl WorkloadSource for RandomSource {
    fn scheme(&self) -> &str {
        "random"
    }

    fn description(&self) -> &str {
        "seeded layered DAG: random:<nodes>x<layers>[@<seed>] (seed defaults to 0)"
    }

    fn load(&self, rest: &str) -> Result<Workload, WorkloadError> {
        let bad = |reason: &str| {
            WorkloadError::new(
                format!("random:{rest}"),
                format!(
                    "{reason} (expected random:<nodes>x<layers>[@<seed>], e.g. random:30x6@42)"
                ),
            )
        };
        let (shape, seed) = match rest.split_once('@') {
            Some((shape, seed)) => (
                shape,
                seed.parse::<u64>()
                    .map_err(|_| bad("seed is not an unsigned integer"))?,
            ),
            None => (rest, 0),
        };
        let (nodes, layers) = shape.split_once('x').ok_or_else(|| bad("missing `x`"))?;
        let nodes: usize = nodes
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| bad("node count must be a positive integer"))?;
        let layers: usize = layers
            .parse()
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| bad("layer count must be a positive integer"))?;
        Ok(Workload {
            spec: format!("random:{nodes}x{layers}@{seed}"),
            dfg: random_layered_dfg(&RandomDfgConfig {
                nodes,
                layers,
                seed,
                ..RandomDfgConfig::default()
            }),
        })
    }
}

/// Files in the textual DFG format under `file:<path>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileSource;

impl WorkloadSource for FileSource {
    fn scheme(&self) -> &str {
        "file"
    }

    fn description(&self) -> &str {
        "a file in the textual DFG format (graph g / op x add / x -> y lines)"
    }

    fn load(&self, rest: &str) -> Result<Workload, WorkloadError> {
        let spec = format!("file:{rest}");
        let text = std::fs::read_to_string(rest)
            .map_err(|e| WorkloadError::new(spec.clone(), format!("cannot read file: {e}")))?;
        let dfg = rchls_dfg::parse_dfg(&text)
            .map_err(|e| WorkloadError::new(spec.clone(), e.to_string()))?;
        Ok(Workload { spec, dfg })
    }
}

/// One registry entry: a scheme and its source.
type SourceEntry = (String, Arc<dyn WorkloadSource>);

/// The registry: scheme-keyed sources, built-ins first, then
/// registration order (listings are deterministic).
fn sources() -> &'static RwLock<Vec<SourceEntry>> {
    static SOURCES: OnceLock<RwLock<Vec<SourceEntry>>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let entry = |s: Arc<dyn WorkloadSource>| (s.scheme().to_owned(), s);
        RwLock::new(vec![
            entry(Arc::new(BuiltinSource)),
            entry(Arc::new(RandomSource)),
            entry(Arc::new(FileSource)),
        ])
    })
}

/// Looks up a workload source by scheme.
#[must_use]
pub fn workload_source(scheme: &str) -> Option<Arc<dyn WorkloadSource>> {
    sources()
        .read()
        .expect("workload registry lock")
        .iter()
        .find(|(k, _)| k == scheme)
        .map(|(_, v)| Arc::clone(v))
}

/// Registered schemes, built-ins first then registration order.
#[must_use]
pub fn workload_source_schemes() -> Vec<String> {
    sources()
        .read()
        .expect("workload registry lock")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Registers an out-of-tree workload source under its
/// [`WorkloadSource::scheme`].
///
/// # Errors
///
/// Returns a [`WorkloadError`] when the scheme is already taken
/// (built-ins cannot be replaced) or contains `:`.
pub fn register_workload_source(source: Arc<dyn WorkloadSource>) -> Result<(), WorkloadError> {
    let scheme = source.scheme().to_owned();
    if scheme.is_empty() || scheme.contains(':') {
        return Err(WorkloadError::new(
            scheme,
            "scheme must be nonempty and must not contain `:`",
        ));
    }
    let mut entries = sources().write().expect("workload registry lock");
    if entries.iter().any(|(k, _)| *k == scheme) {
        return Err(WorkloadError::new(
            scheme.clone(),
            format!("a workload source with scheme {scheme:?} is already registered"),
        ));
    }
    entries.push((scheme, source));
    Ok(())
}

/// Resolves a workload spec (`scheme:rest`, or a bare builtin name)
/// through the registry.
///
/// # Errors
///
/// Returns a [`WorkloadError`] when the scheme is unregistered, the
/// source rejects the spec, or the resolved graph has no operations
/// (whatever the source: an empty graph has no design to synthesize,
/// and its zero critical path has no valid bounds).
pub fn load_workload(spec: &str) -> Result<Workload, WorkloadError> {
    let (scheme, rest) = match spec.split_once(':') {
        Some((scheme, rest)) => (scheme, rest),
        // A bare name is builtin shorthand: `fir16` == `builtin:fir16`.
        None => ("builtin", spec),
    };
    let source = workload_source(scheme).ok_or_else(|| {
        WorkloadError::new(
            spec,
            format!(
                "unknown workload scheme {scheme:?} (registered: {})",
                workload_source_schemes().join(", ")
            ),
        )
    })?;
    let workload = source.load(rest)?;
    if workload.dfg.is_empty() {
        return Err(WorkloadError::new(
            workload.spec,
            "the graph has no operations; a workload needs at least one",
        ));
    }
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_testkit::TestDir;

    #[test]
    fn builtin_specs_resolve_to_the_same_graphs_as_the_constructors() {
        for (name, ctor) in crate::all_benchmarks() {
            let w = load_workload(&format!("builtin:{name}")).unwrap();
            assert_eq!(w.dfg, ctor(), "{name}");
            assert_eq!(w.spec, format!("builtin:{name}"));
            // Bare-name shorthand hits the same source.
            assert_eq!(load_workload(name).unwrap(), w);
        }
    }

    #[test]
    fn random_specs_are_seeded_and_canonicalized() {
        let w = load_workload("random:30x6@42").unwrap();
        assert_eq!(w.spec, "random:30x6@42");
        assert_eq!(w.dfg.node_count(), 30);
        assert!(w.dfg.depth().unwrap() <= 6);
        // Omitted seed defaults to 0 and is echoed.
        let d = load_workload("random:30x6").unwrap();
        assert_eq!(d.spec, "random:30x6@0");
        assert_eq!(d, load_workload("random:30x6@0").unwrap());
        // Different seeds give different graphs.
        assert_ne!(w.dfg, d.dfg);
        // The canonical spec round-trips to the identical workload.
        assert_eq!(load_workload(&w.spec).unwrap(), w);
    }

    #[test]
    fn malformed_random_specs_are_rejected_with_the_grammar() {
        for bad in [
            "random:30",
            "random:x6",
            "random:30x",
            "random:30x6@x",
            "random:0x6",
        ] {
            let e = load_workload(bad).unwrap_err();
            assert!(e.message.contains("random:<nodes>x<layers>"), "{bad}: {e}");
        }
    }

    #[test]
    fn file_specs_parse_and_missing_files_report() {
        let dir = TestDir::new("file-spec");
        let path = dir.join("tiny.dfg");
        std::fs::write(&path, "graph tiny\nop a add\nop b mul\na -> b\n").unwrap();
        let spec = format!("file:{}", path.display());
        let w = load_workload(&spec).unwrap();
        assert_eq!(w.spec, spec);
        assert_eq!(w.dfg.name(), "tiny");
        assert_eq!(w.dfg.node_count(), 2);
        let e = load_workload("file:/nonexistent/x.dfg").unwrap_err();
        assert!(e.message.contains("cannot read"));
        // The display of every file-spec failure carries the offending
        // path (via the spec) so batch documents stay actionable.
        assert!(e.to_string().contains("/nonexistent/x.dfg"), "{e}");
    }

    #[test]
    fn malformed_file_specs_carry_path_and_line() {
        let dir = TestDir::new("malformed-file-spec");
        // A per-line problem reports the path and the offending line.
        let bad = dir.join("bad-line.dfg");
        std::fs::write(&bad, "graph g\nop a add\na -> ghost\n").unwrap();
        let e = load_workload(&format!("file:{}", bad.display())).unwrap_err();
        let shown = e.to_string();
        assert!(shown.contains("bad-line.dfg"), "{shown}");
        assert!(shown.contains("line 3"), "{shown}");
        assert!(shown.contains("ghost"), "{shown}");
        // A whole-graph problem (cycle) reports the path and the op's
        // label — no bogus `line 0`, no internal node id.
        let cyc = dir.join("cycle.dfg");
        std::fs::write(&cyc, "graph g\nop a add\nop b add\na -> b\nb -> a\n").unwrap();
        let e = load_workload(&format!("file:{}", cyc.display())).unwrap_err();
        let shown = e.to_string();
        assert!(shown.contains("cycle.dfg"), "{shown}");
        assert!(shown.contains("cycle detected through op \"a\""), "{shown}");
        assert!(!shown.contains("line 0"), "{shown}");
    }

    #[test]
    fn unknown_schemes_list_the_registered_ones() {
        let e = load_workload("warp:9").unwrap_err();
        assert!(e.message.contains("builtin"));
        assert!(e.message.contains("random"));
        assert!(e.message.contains("file"));
        // A bare name that is not a benchmark reads as builtin shorthand.
        let e = load_workload("nope").unwrap_err();
        assert!(e.message.contains("unknown benchmark"));
    }

    #[test]
    fn registry_lists_builtins_first_and_rejects_duplicates() {
        let schemes = workload_source_schemes();
        assert_eq!(&schemes[..3], &["builtin", "random", "file"]);
        assert!(workload_source("builtin").is_some());
        assert!(workload_source("nope").is_none());
        let err = register_workload_source(Arc::new(BuiltinSource)).unwrap_err();
        assert!(err.message.contains("already registered"));
    }

    #[test]
    fn out_of_tree_sources_join_the_namespace() {
        #[derive(Debug)]
        struct Chain;
        impl WorkloadSource for Chain {
            fn scheme(&self) -> &str {
                "test-chain"
            }
            fn load(&self, rest: &str) -> Result<Workload, WorkloadError> {
                let n: usize = rest.parse().map_err(|_| {
                    WorkloadError::new(format!("test-chain:{rest}"), "not a number")
                })?;
                let mut b = rchls_dfg::DfgBuilder::new(format!("chain{n}"));
                for i in 0..n {
                    b = b.op(&format!("c{i}"), rchls_dfg::OpKind::Add);
                    if i > 0 {
                        b = b.dep(&format!("c{}", i - 1), &format!("c{i}"));
                    }
                }
                Ok(Workload {
                    spec: format!("test-chain:{n}"),
                    dfg: b.build().expect("chain is a DAG"),
                })
            }
        }
        register_workload_source(Arc::new(Chain)).unwrap();
        let w = load_workload("test-chain:5").unwrap();
        assert_eq!(w.dfg.node_count(), 5);
        // Whatever the source, an operation-free graph is refused.
        let e = load_workload("test-chain:0").unwrap_err();
        assert_eq!(e.spec, "test-chain:0");
        assert!(e.message.contains("no operations"), "{e}");
        assert!(workload_source_schemes().contains(&"test-chain".to_owned()));
        assert!(register_workload_source(Arc::new(Chain)).is_err());
        let bad = register_workload_source(Arc::new(BadScheme)).unwrap_err();
        assert!(bad.message.contains("must not contain"));
    }

    #[derive(Debug)]
    struct BadScheme;
    impl WorkloadSource for BadScheme {
        fn scheme(&self) -> &str {
            "has:colon"
        }
        fn load(&self, _rest: &str) -> Result<Workload, WorkloadError> {
            unreachable!()
        }
    }
}
