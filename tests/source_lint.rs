//! Repo source lint: the same "lint before you serve" discipline the
//! `{"op":"lint"}` analyzer applies to models, applied to our own
//! serving code.
//!
//! Two gates, both walking the workspace sources at test time (no
//! tooling beyond the compiler, so the gate runs anywhere CI does):
//!
//! 1. **No panicking extractors in the serving core.** `crates/serve`
//!    and `crates/obs` run inside the daemon; a stray `.unwrap()` there
//!    turns a malformed request or a lost race into a thread panic that
//!    the panic boundary must absorb. Production code in those crates
//!    may not call `.unwrap()` or `.expect("…")` unless the line (or the
//!    line above it) carries a `// lint: infallible` waiver — and the
//!    total waiver count is pinned, so new waivers are a reviewed,
//!    deliberate act.
//!
//! 2. **No clock reads in fingerprint-relevant code.** Report
//!    fingerprints, cache keys, and wire canonicalization must be pure
//!    functions of their inputs; an `Instant::now()`/`SystemTime::now()`
//!    anywhere near them is how "bit-identical across restarts" quietly
//!    stops being true. Zero tolerance, no waivers.
//!
//! Test modules (everything from the first `#[cfg(test)]` on) and
//! comment/doc lines are exempt: the gate polices what runs in the
//! daemon, not what asserts around it.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, sorted for stable output.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).unwrap_or_else(|e| panic!("read_dir {}: {e}", d.display()));
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The production prefix of a source file: everything before the first
/// `#[cfg(test)]`, with comment-only content blanked (line comments and
/// the comment tail of code lines, so doc examples never trip the gate).
fn production_lines(path: &Path) -> Vec<(usize, String)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        };
        out.push((i + 1, code.to_string()));
    }
    out
}

/// Does source line `n` (1-based) carry the infallibility waiver, either
/// trailing or on the line directly above?
fn has_waiver(text: &str, n: usize) -> bool {
    let lines: Vec<&str> = text.lines().collect();
    let marked = |i: usize| {
        i.checked_sub(1)
            .and_then(|i| lines.get(i))
            .is_some_and(|l| l.contains("// lint: infallible"))
    };
    marked(n) || marked(n - 1)
}

#[test]
fn serving_crates_do_not_unwrap_outside_tests() {
    // Every currently-waived site, pinned. Adding a waiver means adding
    // it here too — the diff review *is* the approval step. Removing
    // code removes its entry.
    const MAX_WAIVERS: usize = 11;
    let mut violations = Vec::new();
    let mut waivers = 0usize;
    for root in ["crates/serve/src", "crates/obs/src"] {
        for path in rust_sources(Path::new(root)) {
            let text = std::fs::read_to_string(&path).expect("readable source");
            for (n, code) in production_lines(&path) {
                if !(code.contains(".unwrap()") || code.contains(".expect(\"")) {
                    continue;
                }
                if has_waiver(&text, n) {
                    waivers += 1;
                } else {
                    violations.push(format!("{}:{n}: {}", path.display(), code.trim()));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "panicking extractor(s) in serving code — handle the error or mark \
         the line `// lint: infallible` and bump the pinned waiver count:\n{}",
        violations.join("\n")
    );
    assert!(
        waivers <= MAX_WAIVERS,
        "waiver count grew to {waivers} (pinned max {MAX_WAIVERS}); a new \
         `// lint: infallible` needs review — bump the pin in this test \
         only alongside the justification in the PR"
    );
}

#[test]
fn fingerprint_relevant_code_reads_no_clocks() {
    // These files define what "deterministic" means for the daemon:
    // report fingerprints (engine/report.rs), the memoization cache and
    // its persistence (serve/cache.rs + submodules, serve/append_log.rs),
    // and wire canonicalization (serve/wire.rs). No waivers here — time
    // belongs in the metrics layer, never in anything a fingerprint
    // hashes.
    let mut files = vec![
        PathBuf::from("crates/engine/src/report.rs"),
        PathBuf::from("crates/serve/src/cache.rs"),
        PathBuf::from("crates/serve/src/append_log.rs"),
        PathBuf::from("crates/serve/src/wire.rs"),
    ];
    files.extend(rust_sources(Path::new("crates/serve/src/cache")));
    let mut violations = Vec::new();
    for path in files {
        for (n, code) in production_lines(&path) {
            for needle in ["Instant::now", "SystemTime::now"] {
                if code.contains(needle) {
                    violations.push(format!("{}:{n}: {}", path.display(), code.trim()));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "clock read(s) in fingerprint-relevant code:\n{}",
        violations.join("\n")
    );
}
