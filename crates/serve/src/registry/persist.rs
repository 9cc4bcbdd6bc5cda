//! The registry log: an [`AppendLog`] of model registrations, each
//! `{"model": <name>, "source": <canonical ModelSource>}`.
//!
//! Because a model's fingerprint is a hash of that canonical source,
//! replaying the log reproduces the exact fingerprints of the original
//! registrations — so persisted cache keys (which embed fingerprints)
//! warm-hit immediately, and replies after a `kill -9` restart are
//! `fingerprint()`-identical to the pre-crash daemon with **no client
//! re-registration**. The last record per model name wins, so
//! re-registering in a loop cannot grow the log without bound.

use crate::append_log::{AppendLog, Codec};
use crate::json::Json;
use crate::wire::ModelSource;

/// The registry log.
pub type RegistryLog = AppendLog<RegistryCodec>;

/// One registration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelRecord {
    /// The name the model registered under.
    pub name: String,
    /// Its canonical source; building it reproduces the original
    /// fingerprint exactly (JSON float rendering round-trips bits).
    pub source: ModelSource,
}

/// The `biocheck-registry v1` record format.
pub struct RegistryCodec;

impl Codec for RegistryCodec {
    type Record = ModelRecord;
    const HEADER: &'static str = "biocheck-registry v1";

    fn encode(rec: &ModelRecord) -> Option<String> {
        let record = Json::obj([
            ("model", Json::str(rec.name.clone())),
            ("source", rec.source.to_json()),
        ]);
        Some(record.render())
    }

    fn decode(v: &Json) -> Option<ModelRecord> {
        Some(ModelRecord {
            name: v.get("model")?.as_str()?.to_string(),
            source: ModelSource::from_json(v.get("source")?).ok()?,
        })
    }

    fn key(rec: &ModelRecord) -> &str {
        &rec.name
    }

    #[cfg(feature = "fault-injection")]
    fn injected_io_error() -> bool {
        crate::faults::registry_io_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{fingerprint64, Registry};

    fn record(name: &str, rhs: &str) -> ModelRecord {
        ModelRecord {
            name: name.into(),
            source: ModelSource {
                states: vec![("x".into(), rhs.into())],
                consts: vec![("k".into(), 0.25)],
            },
        }
    }

    /// Opens the log, dropping the extents.
    fn open(path: &std::path::Path) -> (RegistryLog, Vec<ModelRecord>) {
        let (log, recs) = RegistryLog::open(path).unwrap();
        (log, recs.into_iter().map(|(_, r)| r).collect())
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "biocheck-registry-persist-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_preserves_fingerprints() {
        let mut rec = record("fitzhugh", "v - u^3 + k*u");
        // A const with no short decimal form: the JSON number rendering
        // must round-trip its bits for the fingerprint to survive.
        rec.source.consts[0].1 = 1.0 / 3.0;
        let back = RegistryLog::decode_line(&RegistryLog::encode_line(&rec).unwrap());
        assert_eq!(back.as_ref(), Some(&rec));
    }

    /// A log written before `AppendLog` existed loads under the
    /// fingerprint it was registered with.
    #[test]
    fn v1_lines_from_older_daemons_still_load() {
        let path = tmp_path("v1");
        let v1 = r#"d136e78d4c5b02f1 {"model":"decay","source":{"consts":[["k",0.25]],"states":[["x","-k*x"]]}}"#;
        std::fs::write(&path, format!("biocheck-registry v1\n{v1}\n")).unwrap();
        let (log, recs) = open(&path);
        assert_eq!((log.stats().loaded, log.stats().skipped), (1, 0));
        assert_eq!(recs, [record("decay", "-k*x")]);
        let (direct, _) = Registry::new()
            .register("decay", &record("decay", "-k*x").source)
            .unwrap();
        assert_eq!(
            fingerprint64(&recs[0].source.canonical()),
            direct.fingerprint()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_reopen_recovers_and_replays() {
        let path = tmp_path("reopen");
        let (mut log, _) = RegistryLog::open(&path).unwrap();
        log.append(&record("a", "-k*x"));
        log.append(&record("b", "-2*k*x"));
        drop(log);
        let (log, recs) = open(&path);
        assert_eq!((log.stats().loaded, log.stats().skipped), (2, 0));
        assert_eq!(recs, [record("a", "-k*x"), record("b", "-2*k*x")]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_only_the_last_registration_per_name() {
        let path = tmp_path("dedup");
        let (mut log, _) = RegistryLog::open(&path).unwrap();
        log.append(&record("m", "-k*x"));
        log.append(&record("other", "-x"));
        log.append(&record("m", "-3*k*x")); // replaces the first
        drop(log);
        let (log, recs) = open(&path);
        assert_eq!((log.stats().loaded, log.stats().deduped), (2, 1));
        assert_eq!(recs[0], record("m", "-3*k*x"), "last registration wins");
        let _ = std::fs::remove_file(&path);
    }

    /// Checksummed lines whose source does not decode are refused.
    #[test]
    fn corrupt_lines_and_torn_tails_are_skipped_then_compacted_away() {
        let good = RegistryLog::encode_line(&record("good", "-k*x")).unwrap();
        let payload = good.split_once(' ').unwrap().1;
        for (from, to) in [
            ("\"states\"", "\"stats\""),
            ("[\"x\",\"-k*x\"]", "[\"x\"]"),
            ("\"model\":\"good\"", "\"model\":7"),
        ] {
            let tampered = payload.replacen(from, to, 1);
            assert_ne!(tampered, payload, "{from} not found");
            let line = format!("{} {tampered}", fingerprint64(&tampered));
            assert_eq!(RegistryLog::decode_line(&line), None, "{line}");
        }
        assert_eq!(RegistryLog::decode_line(&good[..good.len() - 1]), None);
    }

    #[test]
    fn unknown_header_invalidates_the_file_without_crashing() {
        let path = tmp_path("header");
        let good = RegistryLog::encode_line(&record("k", "-x")).unwrap();
        std::fs::write(&path, format!("biocheck-registry v999\n{good}\n")).unwrap();
        let (log, recs) = open(&path);
        assert_eq!((recs.len(), log.stats().skipped), (0, 1));
        let _ = std::fs::remove_file(&path);
    }
}
