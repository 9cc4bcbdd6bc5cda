//! Documentation drift checks.
//!
//! `docs/OPERATIONS.md` promises to document every wire operation,
//! every error kind a reply can carry and every `biocheckd_*` metric.
//! The source-of-truth lists live in code (`wire::OP_NAMES`,
//! `server::ERROR_KINDS`, the names `ServeCore::metrics_text` renders);
//! these tests — and the equivalent grep steps in CI — fail when a
//! name is added without a matching mention in the runbook.

use biocheck_serve::server::{ServeConfig, ServeCore, ERROR_KINDS};
use biocheck_serve::wire::OP_NAMES;

const OPERATIONS_MD: &str = include_str!("../../../docs/OPERATIONS.md");

#[test]
fn operations_doc_mentions_every_wire_op() {
    for op in OP_NAMES {
        assert!(
            OPERATIONS_MD.contains(&format!("`{op}`")),
            "docs/OPERATIONS.md does not mention wire op `{op}`"
        );
    }
}

#[test]
fn operations_doc_mentions_every_error_kind() {
    for kind in ERROR_KINDS {
        assert!(
            OPERATIONS_MD.contains(&format!("`{kind}`")),
            "docs/OPERATIONS.md does not mention error kind `{kind}`"
        );
    }
}

#[test]
fn docs_cross_link_each_other() {
    const ARCHITECTURE_MD: &str = include_str!("../../../docs/ARCHITECTURE.md");
    assert!(OPERATIONS_MD.contains("ARCHITECTURE.md"));
    assert!(ARCHITECTURE_MD.contains("OPERATIONS.md"));
}

/// Does `doc` mention `name` as a whole identifier, so that a prefix
/// such as `biocheckd_persist_` never stands in for a full name?
fn mentions_whole(doc: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    doc.match_indices(name)
        .any(|(at, _)| !doc[..at].ends_with(ident) && !doc[at + name.len()..].starts_with(ident))
}

#[test]
fn whole_name_matching_rejects_prefixes() {
    let doc = "`biocheckd_persist_` and biocheckd_cache_hits_total_x";
    assert!(!mentions_whole(doc, "biocheckd_persist_indexed"));
    assert!(!mentions_whole(doc, "biocheckd_cache_hits_total"));
    assert!(mentions_whole(doc, "biocheckd_persist_"));
}

#[test]
fn operations_doc_mentions_every_metric_name() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let persist = dir.join(format!("biocheck-docs-drift-cache-{pid}"));
    let registry = dir.join(format!("biocheck-docs-drift-registry-{pid}"));
    let core = ServeCore::new(ServeConfig {
        persist: Some(persist.clone()),
        registry: Some(registry.clone()),
        ..ServeConfig::default()
    });
    let text = core.metrics_text();
    let _ = std::fs::remove_file(persist);
    let _ = std::fs::remove_file(registry);
    let mut names: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split(['{', ' ']).next())
        .collect();
    names.dedup();
    assert!(names.contains(&"biocheckd_registry_loaded_total"));
    for name in names {
        assert!(
            mentions_whole(OPERATIONS_MD, name),
            "docs/OPERATIONS.md does not mention metric {name}"
        );
    }
}
