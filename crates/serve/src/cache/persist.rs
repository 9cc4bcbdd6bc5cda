//! The result cache's spill log: an [`AppendLog`] of memoized reports.
//!
//! The daemon's memoized results are pure functions of their key (see
//! the memoization contract in [`crate::server`]), which makes them
//! safe to persist across restarts: a warm-started cache hit is
//! `fingerprint()`-identical to a fresh computation.
//!
//! Each record is `{"key", "cost", "report"}`, where `report` is
//! exactly the wire form [`report_to_json`] emits — bit-exact floats,
//! non-finite values included, plus the report's `fingerprint`. It is
//! the memo's [`Memo::payload`], the bytes the reply carries, written
//! as they are. On load a record is accepted only if
//! [`report_from_json`] reproduces that stored fingerprint, so a record
//! that does not decode to exactly what was stored is skipped, never
//! served. Phase timings are not restored: they are excluded from
//! fingerprints and meaningless across restarts, so a loaded record's
//! payload is rendered again from the decoded report.
//!
//! Only wire-producible reports (`Estimate`, `Sprt`, `Robustness`,
//! `Stability`, `Lint`) are persisted; in-process-only kinds are
//! counted in [`LogStats::unsupported`](crate::append_log::LogStats)
//! and served from memory as usual.
//!
//! The log is also the daemon's second memo tier: a record's extent
//! packs into one [`ResultCache`](crate::cache::ResultCache) index
//! locator ([`locator`]), and [`CacheLog::load`] reads it back when a
//! lookup misses RAM, accepting it only for the exact key asked.

use crate::append_log::{AppendLog, Codec, Extent};
use crate::json::{Json, ObjWriter};
use crate::wire::{report_from_json, report_to_json, u64_from_json, u64_to_json};
use biocheck_engine::{Report, Value};
use std::sync::Arc;

/// The cache spill log.
pub type CacheLog = AppendLog<CacheCodec>;

/// Low bits of a locator holding the line length (16 MiB lines); the
/// high 40 hold the byte offset (1 TiB logs).
const LEN_BITS: u32 = 24;

/// Packs an extent into one index locator, `offset << 24 | len`, so
/// locators grow with the offset. `None` when a field does not fit:
/// such a record is served from RAM instead.
pub fn locator(at: Extent) -> Option<u64> {
    let fits = at.len < 1 << LEN_BITS && at.offset < 1 << (64 - LEN_BITS);
    fits.then_some(at.offset << LEN_BITS | at.len as u64)
}

impl CacheLog {
    /// Reads back the record at `locator` and returns its memo and
    /// cost — only if it passes its checksum, decodes to its stored
    /// fingerprint, and is stored under exactly `key` (a locator is
    /// found by key hash, so it may belong to a colliding key).
    pub fn load(&mut self, key: &str, locator: u64) -> Option<(Memo, usize)> {
        let rec = self.read(Extent {
            offset: locator >> LEN_BITS,
            len: (locator & ((1 << LEN_BITS) - 1)) as usize,
        })?;
        (rec.key == key).then_some((rec.memo, rec.cost))
    }
}

/// A memoized report and its wire payload, rendered once: a cache hit
/// sends these bytes as they are.
#[derive(Clone)]
pub struct Memo {
    /// The report.
    pub report: Arc<Report>,
    /// `report_to_json(&report).render()`: the reply's `"report"`
    /// member and the log record's.
    pub payload: Arc<str>,
}

impl Memo {
    /// Renders `report`'s payload.
    pub fn new(report: Report) -> Memo {
        Memo {
            payload: report_to_json(&report).render().into(),
            report: Arc::new(report),
        }
    }
}

/// One memoized result.
pub struct CacheRecord {
    /// The full memoization key.
    pub key: String,
    /// The byte cost the entry is charged in the cache.
    pub cost: usize,
    /// The memoized report and its payload.
    pub memo: Memo,
}

/// The `biocheck-cache v2` record format.
pub struct CacheCodec;

impl Codec for CacheCodec {
    type Record = CacheRecord;
    // v1 stored floats as hex bit patterns; v1 files are skipped.
    const HEADER: &'static str = "biocheck-cache v2";

    fn encode(rec: &CacheRecord) -> Option<String> {
        // Falsify / Therapy / Calibrate never travel the wire, so the
        // serving cache only memoizes them in-process.
        if matches!(
            rec.memo.report.value,
            Value::Falsify(_) | Value::Therapy(_) | Value::Calibration(_)
        ) {
            return None;
        }
        let payload = &rec.memo.payload;
        let record = ObjWriter::with_capacity(payload.len() + rec.key.len() + 32)
            .member("cost", &u64_to_json(rec.cost as u64))
            .string("key", &rec.key)
            .raw("report", payload);
        Some(record.finish())
    }

    fn decode(v: &Json) -> Option<CacheRecord> {
        Some(CacheRecord {
            key: v.get("key")?.as_str()?.to_string(),
            cost: usize::try_from(u64_from_json(v.get("cost")?)?).ok()?,
            memo: Memo::new(report_from_json(v.get("report")?)?),
        })
    }

    fn key(rec: &CacheRecord) -> &str {
        &rec.key
    }

    #[cfg(feature = "fault-injection")]
    fn injected_io_error() -> bool {
        crate::faults::persist_io_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::fingerprint64;
    use biocheck_engine::{
        Diagnostic, Outcome, Provenance, QueryKind, RobustnessSummary, Severity, StabilityReport,
    };
    use biocheck_interval::Interval;
    use biocheck_smc::Estimate;

    fn record(kind: QueryKind, value: Value) -> CacheRecord {
        let provenance = Provenance {
            seed: u64::MAX, // above 2^53: travels as a string
            samples: 120,
            early_stop_rate: 0.25,
            avg_steps: 37.5,
            ..Provenance::default()
        };
        let report = Report {
            kind,
            outcome: Outcome::Complete,
            value,
            provenance,
        };
        CacheRecord {
            key: "m|q|seed=1|caps".into(),
            cost: 512,
            memo: Memo::new(report),
        }
    }

    fn estimate(p_hat: f64) -> CacheRecord {
        let e = Estimate {
            p_hat,
            samples: 120,
            half_width: f64::MIN_POSITIVE,
            confidence: 0.95,
        };
        record(QueryKind::Estimate, Value::Estimate(e))
    }

    /// Encode → frame → decode, checking the record survives intact.
    fn roundtrip(rec: &CacheRecord) -> Arc<Report> {
        let line = CacheLog::encode_line(rec).expect("encodable");
        let back = CacheLog::decode_line(&line).expect("decodable");
        assert_eq!((back.key.as_str(), back.cost), (rec.key.as_str(), rec.cost));
        assert_eq!(
            back.memo.report.fingerprint(),
            rec.memo.report.fingerprint()
        );
        back.memo.report
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("biocheck-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_preserves_fingerprints_including_nonfinite() {
        roundtrip(&estimate(1.0 / 3.0)); // no short decimal form
        let r = RobustnessSummary {
            p_hat: f64::NAN,
            mean: -0.0,
            min: f64::NEG_INFINITY,
        };
        roundtrip(&record(QueryKind::Robustness, Value::Robustness(r)));
        let s = StabilityReport {
            equilibrium: vec![0.1, -2.5e-300, f64::INFINITY],
            lyapunov: "V(x) = xᵀPx".into(),
            iterations: 12,
            certified: true,
        };
        roundtrip(&record(QueryKind::Stability, Value::Stability(Some(s))));
    }

    #[test]
    fn lint_reports_roundtrip_bit_exactly() {
        let diag = Diagnostic {
            code: "L002".into(),
            severity: Severity::Error,
            site: "d(x)/dt".into(),
            message: "`ln` argument `x - 5` is never positive".into(),
            expr: None,
            witness: vec![
                ("x".into(), Interval::new(0.0, f64::INFINITY)),
                ("bad".into(), Interval::EMPTY),
            ],
        };
        let back = roundtrip(&record(QueryKind::Lint, Value::Lint(vec![diag])));
        let Value::Lint(diags) = &back.value else {
            panic!("wrong value kind")
        };
        // The witness boxes themselves (not just the fingerprint)
        // survive: unbounded and empty intervals included.
        assert_eq!(diags[0].witness[0].1, Interval::new(0.0, f64::INFINITY));
        assert!(diags[0].witness[1].1.is_empty());
    }

    #[test]
    fn unsupported_kinds_are_refused_not_mangled() {
        let falsify = Value::Falsify(biocheck_engine::FalsificationOutcome::Undecided);
        assert!(CacheLog::encode_line(&record(QueryKind::Falsify, falsify)).is_none());
    }

    #[test]
    fn extents_past_the_packed_fields_have_no_locator() {
        let at = |offset, len| locator(Extent { offset, len });
        assert_eq!(at(3, 7), Some(3 << 24 | 7));
        assert!(at(3, 7) < at(4, 1), "locators grow with the offset");
        assert_eq!(at(0, 1 << 24), None);
        assert_eq!(at(1 << 40, 1), None);
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let path = tmp_path("reopen");
        let (mut log, _) = CacheLog::open(&path).unwrap();
        log.append(&estimate(0.25));
        drop(log);
        let (mut log, recs) = CacheLog::open(&path).unwrap();
        assert_eq!((log.stats().loaded, log.stats().skipped), (1, 0));
        let (at, rec) = &recs[0];
        let want = estimate(0.25).memo.report.fingerprint();
        assert_eq!(rec.memo.report.fingerprint(), want);
        // The reported extent reads back, for its own key only.
        let locator = locator(*at).unwrap();
        let (memo, cost) = log.load(&rec.key, locator).unwrap();
        assert_eq!((memo.report.fingerprint(), cost), (want, rec.cost));
        assert_eq!(memo.payload, rec.memo.payload);
        assert!(log.load("m|q|seed=2|caps", locator).is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// Records that pass their checksum but do not decode to exactly
    /// what was stored are refused.
    #[test]
    fn corrupt_lines_and_torn_tails_are_skipped_then_compacted_away() {
        let good = CacheLog::encode_line(&estimate(0.5)).unwrap();
        let payload = good.split_once(' ').unwrap().1;
        for (from, to) in [
            ("\"cost\":512", "\"cost\":null"),
            ("\"p_hat\":0.5", "\"p_hat\":0.25"),
            ("\"fingerprint\":\"", "\"fingerprint\":\"x"),
            ("\"kind\":\"Estimate\"", "\"kind\":\"Sprt\""),
            ("\"samples\":120", "\"samples\":1.5"),
        ] {
            let tampered = payload.replacen(from, to, 1);
            assert_ne!(tampered, payload, "{from} not found");
            let line = format!("{} {tampered}", fingerprint64(&tampered));
            assert!(CacheLog::decode_line(&line).is_none(), "{line}");
        }
        assert!(CacheLog::decode_line(&good[..good.len() - 1]).is_none());
    }

    #[test]
    fn unknown_header_invalidates_the_file_without_crashing() {
        // A v1 file (hex-float records) is skipped wholesale on upgrade.
        let path = tmp_path("header");
        let good = CacheLog::encode_line(&estimate(0.5)).unwrap();
        std::fs::write(&path, format!("biocheck-cache v1\n{good}\n")).unwrap();
        let (log, recs) = CacheLog::open(&path).unwrap();
        assert_eq!((recs.len(), log.stats().skipped), (0, 1));
        let _ = std::fs::remove_file(&path);
    }
}
