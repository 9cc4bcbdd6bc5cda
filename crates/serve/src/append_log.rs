//! The crash-recoverable append-only log behind both daemon logs (the
//! result-cache spill file and the registry log): a [`Codec::HEADER`]
//! line, then one `<fnv1a64 of payload> <payload JSON>` line per record.
//! What a record *means* is the [`Codec`]'s job; surviving a crash is
//! this module's, once:
//!
//! * **Append.** Records are appended one at a time, each line and its
//!   newline in one write to the OS, so a crash — including SIGKILL —
//!   loses at most the torn tail record the process was writing.
//!   Failures are counted, never returned: persistence must never fail
//!   a request.
//! * **Load.** Corruption-tolerant, never fatal: a line that fails its
//!   checksum, does not parse, or does not decode is counted in
//!   [`LogStats::skipped`]; a missing or unknown header invalidates
//!   everything after it. The last record per [`Codec::key`] wins,
//!   matching the in-memory replacement semantics of both the cache and
//!   the registry.
//! * **Compact.** Opening rewrites the surviving records to
//!   `<path>.tmp`, fsyncs it, and atomically renames it over the log, so
//!   corruption and superseded records never accumulate and the log
//!   never holds a partial rewrite.
//! * **Read back.** Open and append report each record's [`Extent`] in
//!   the file; [`AppendLog::read`] re-reads one and accepts it only
//!   through the same checksum and decode as a line at open time.

use crate::json::{parse_json, Json};
use crate::registry::fingerprint64;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The record format of one log.
pub trait Codec {
    /// One decoded record.
    type Record;
    /// The first line of the file: names the format and its version. A
    /// file with any other first line is not trusted.
    const HEADER: &'static str;
    /// The record's payload, rendered JSON; `None` when this record
    /// cannot be persisted (counted in [`LogStats::unsupported`]).
    fn encode(record: &Self::Record) -> Option<String>;
    /// The inverse of [`Codec::encode`]; `None` when the payload does
    /// not describe a valid record.
    fn decode(payload: &Json) -> Option<Self::Record>;
    /// The deduplication key: on load, the last record per key wins.
    fn key(record: &Self::Record) -> &str;
    /// Fault-injection hook: should this append fail as an I/O error?
    #[cfg(feature = "fault-injection")]
    fn injected_io_error() -> bool;
}

/// Lifetime counters for one [`AppendLog`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Distinct records recovered at open time (after deduplication).
    pub loaded: usize,
    /// Lines discarded at open time (checksum, parse, or decode
    /// failure — torn tails land here).
    pub skipped: usize,
    /// Superseded records dropped at open time (an earlier record of a
    /// key that was written again later).
    pub deduped: usize,
    /// Records appended since open.
    pub appended: usize,
    /// Append attempts that failed at the I/O layer.
    pub append_errors: usize,
    /// Records the codec refused to encode.
    pub unsupported: usize,
}

/// Where one record's line sits in the log file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset of the line's first byte.
    pub offset: u64,
    /// Line length in bytes, without the newline.
    pub len: usize,
}

/// An opened log and the records recovered from it, each with its
/// extent in the compacted file.
pub type Opened<C> = (AppendLog<C>, Vec<(Extent, <C as Codec>::Record)>);

/// An open, append-mode log of `C` records.
pub struct AppendLog<C: Codec> {
    writer: File,
    reader: File,
    stats: LogStats,
    codec: PhantomData<C>,
}

impl<C: Codec> AppendLog<C> {
    /// Opens (creating if absent) the log at `path`: recovers every
    /// valid record (last per key), compacts the file down to exactly
    /// those via an atomic temp-file rename, and leaves the log open
    /// for appending. Each record comes with its extent in the
    /// compacted file. Corrupt content is skipped, never an error; only
    /// a filesystem-level failure to (re)create the file is.
    pub fn open(path: &Path) -> std::io::Result<Opened<C>> {
        let mut stats = LogStats::default();
        let records = match File::open(path) {
            Ok(f) => read_records::<C>(f, &mut stats),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let tmp = compaction_path(path);
        let mut recovered = Vec::with_capacity(records.len());
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            writeln!(w, "{}", C::HEADER)?;
            let mut offset = C::HEADER.len() as u64 + 1;
            for record in records {
                // Loaded records decoded, so they re-encode.
                let Some(line) = Self::encode_line(&record) else {
                    continue;
                };
                writeln!(w, "{line}")?;
                let len = line.len();
                recovered.push((Extent { offset, len }, record));
                offset += len as u64 + 1;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable, or a power loss could revert
        // the directory entry to the old file and strand later appends
        // on the unlinked one. Best-effort: not every platform can open
        // a directory.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let _ = File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all());
        let log = AppendLog {
            writer: OpenOptions::new().append(true).open(path)?,
            reader: File::open(path)?,
            stats,
            codec: PhantomData,
        };
        Ok((log, recovered))
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Appends one record, line and newline in one write to the OS, so
    /// a crash right after the reply was sent cannot lose it. Returns
    /// the record's extent once it is written; all failure modes are
    /// absorbed into the counters and return `None`.
    pub fn append(&mut self, record: &C::Record) -> Option<Extent> {
        let Some(mut line) = Self::encode_line(record) else {
            self.stats.unsupported += 1;
            return None;
        };
        #[cfg(feature = "fault-injection")]
        if C::injected_io_error() {
            self.stats.append_errors += 1;
            return None;
        }
        let len = line.len();
        line.push('\n');
        if self.writer.write_all(line.as_bytes()).is_err() {
            self.stats.append_errors += 1;
            return None;
        }
        self.stats.appended += 1;
        // The offset is asked of the file, not tracked here: a torn
        // earlier write or an outside truncation moves the end.
        let end = self.writer.stream_position().ok()?;
        Some(Extent {
            offset: end.checked_sub(line.len() as u64)?,
            len,
        })
    }

    /// Reads back the record at `at`, an extent this log reported,
    /// through the same checksum and decode as a line at open time.
    /// `None` on any I/O error and for torn or overwritten bytes.
    pub fn read(&mut self, at: Extent) -> Option<C::Record> {
        let mut buf = vec![0; at.len];
        self.reader.seek(SeekFrom::Start(at.offset)).ok()?;
        self.reader.read_exact(&mut buf).ok()?;
        Self::decode_line(std::str::from_utf8(&buf).ok()?)
    }

    /// Best-effort fsync (shutdown path).
    pub fn sync(&mut self) {
        let _ = self.writer.sync_all();
    }

    /// One framed record line, `<checksum> <payload>`; `None` when the
    /// codec refuses the record.
    pub fn encode_line(record: &C::Record) -> Option<String> {
        let payload = C::encode(record)?;
        Some(format!("{} {payload}", fingerprint64(&payload)))
    }

    /// The inverse of [`AppendLog::encode_line`]; `None` for any line
    /// that is torn, fails its checksum, or does not decode.
    pub fn decode_line(line: &str) -> Option<C::Record> {
        let (checksum, payload) = line.split_once(' ')?;
        if checksum != fingerprint64(payload) {
            return None;
        }
        C::decode(&parse_json(payload).ok()?)
    }
}

/// `<path>.tmp`. Appending (not `with_extension`) keeps a log named
/// `x.tmp` from compacting onto itself — truncating the live log before
/// the rename — and keeps `a` and `a.log` from sharing a temp file.
fn compaction_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

fn read_records<C: Codec>(f: File, stats: &mut LogStats) -> Vec<C::Record> {
    let mut reader = BufReader::new(f);
    let mut records: Vec<C::Record> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut header_seen = false;
    let mut line = String::new();
    loop {
        line.clear();
        // A line that is not UTF-8 (or any other read error) ends
        // recovery: framing below the failure point is untrustworthy.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => {
                stats.skipped += 1;
                break;
            }
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        if !header_seen {
            if line != C::HEADER {
                // Unknown version or garbage where the header should
                // be: nothing after it can be trusted.
                stats.skipped += 1;
                break;
            }
            header_seen = true;
            continue;
        }
        let Some(rec) = AppendLog::<C>::decode_line(line) else {
            stats.skipped += 1;
            continue;
        };
        match index.get(C::key(&rec)) {
            Some(&i) => {
                stats.deduped += 1;
                records[i] = rec;
            }
            None => {
                index.insert(C::key(&rec).to_string(), records.len());
                records.push(rec);
            }
        }
    }
    stats.loaded = records.len();
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal codec: `(key, value)` string pairs; the value `"-"`
    /// is refused.
    struct Pairs;

    impl Codec for Pairs {
        type Record = (String, String);
        const HEADER: &'static str = "pairs v1";
        fn encode((k, v): &(String, String)) -> Option<String> {
            (v != "-").then(|| Json::Arr(vec![Json::str(k.clone()), Json::str(v.clone())]).render())
        }
        fn decode(payload: &Json) -> Option<(String, String)> {
            let [k, v] = payload.as_arr()? else {
                return None;
            };
            Some((k.as_str()?.to_string(), v.as_str()?.to_string()))
        }
        fn key((k, _): &(String, String)) -> &str {
            k
        }
        #[cfg(feature = "fault-injection")]
        fn injected_io_error() -> bool {
            false
        }
    }

    type Log = AppendLog<Pairs>;

    fn pair(k: &str, v: &str) -> (String, String) {
        (k.into(), v.into())
    }

    fn line(k: &str, v: &str) -> String {
        Log::encode_line(&pair(k, v)).unwrap()
    }

    /// Opens the log, dropping the extents.
    fn open(path: &Path) -> (Log, Vec<(String, String)>) {
        let (log, recs) = Log::open(path).unwrap();
        (log, recs.into_iter().map(|(_, r)| r).collect())
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("biocheck-append-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_reopen_recovers_last_record_per_key() {
        let path = tmp_path("reopen");
        let (mut log, recs) = open(&path);
        assert!(recs.is_empty());
        log.append(&pair("a", "1"));
        log.append(&pair("b", "2"));
        log.append(&pair("a", "3")); // replaces the first
        log.append(&pair("c", "-")); // refused by the codec
        assert_eq!((log.stats().appended, log.stats().unsupported), (3, 1));
        drop(log);
        let (log, recs) = open(&path);
        assert_eq!(recs, [pair("a", "3"), pair("b", "2")]);
        assert_eq!((log.stats().loaded, log.stats().deduped), (2, 1));
        drop(log);
        // Compaction dropped the superseded record for good.
        let (log, _) = open(&path);
        assert_eq!((log.stats().loaded, log.stats().deduped), (2, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_and_torn_tails_are_skipped_then_compacted_away() {
        let path = tmp_path("corrupt");
        let good = line("good", "x");
        let (checksum, payload) = good.split_once(' ').unwrap();
        let content = [
            Pairs::HEADER.to_string(),
            good.clone(),
            "0000000000000000 [\"not\",\"matching\"]".into(), // bad checksum
            format!("{checksum} {}", &payload[..payload.len() / 2]), // truncated
            "complete garbage, not even a record".into(),
            format!("{} {{}}", fingerprint64("{}")), // checksummed, undecodable
            String::new(),                           // blank lines are ignored
            line("good2", "y"),
            good[..good.len() / 2].to_string(), // torn tail, no newline
        ]
        .join("\n");
        std::fs::write(&path, content).unwrap();
        let (log, recs) = open(&path);
        assert_eq!(recs, [pair("good", "x"), pair("good2", "y")]);
        assert_eq!(log.stats().skipped, 5, "five corrupt lines skipped");
        drop(log);
        let (log, recs) = open(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(log.stats().skipped, 0, "corruption scrubbed by compaction");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_header_invalidates_the_file_without_crashing() {
        let path = tmp_path("header");
        std::fs::write(&path, format!("pairs v999\n{}\n", line("k", "v"))).unwrap();
        let (log, recs) = open(&path);
        assert!(
            recs.is_empty(),
            "records behind an unknown header untrusted"
        );
        assert_eq!(log.stats().skipped, 1);
        // Non-UTF-8 bytes end recovery at that line, without an error.
        let mut bytes = format!("{}\n{}\n", Pairs::HEADER, line("k", "v")).into_bytes();
        bytes.extend_from_slice(b"\xff\xfe\n");
        std::fs::write(&path, bytes).unwrap();
        let (log, recs) = open(&path);
        assert_eq!((recs.len(), log.stats().skipped), (1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_log_named_tmp_compacts_through_its_own_temp_file() {
        // `with_extension("tmp")` mapped `x.tmp` onto itself and both
        // `a` and `a.log` onto `a.tmp`.
        let p = Path::new;
        assert_eq!(compaction_path(p("d/x.tmp")), p("d/x.tmp.tmp"));
        assert_ne!(compaction_path(p("d/a")), compaction_path(p("d/a.log")));
        let path = tmp_path("named").with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = open(&path);
        log.append(&pair("k", "v"));
        drop(log);
        let (_, recs) = open(&path);
        assert_eq!(recs, [pair("k", "v")]);
        assert!(!compaction_path(&path).exists(), "temp file renamed away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn extents_read_back_and_refuse_altered_bytes() {
        let path = tmp_path("extents");
        let (mut log, _) = open(&path);
        let a = log.append(&pair("a", "1")).unwrap();
        let b = log.append(&pair("b", "2")).unwrap();
        assert_eq!(log.append(&pair("c", "-")), None, "refused record");
        assert_eq!(log.read(a), Some(pair("a", "1")));
        assert_eq!(log.read(b), Some(pair("b", "2")));
        drop(log);
        // Reopening reports each survivor's extent in the compacted file.
        let (mut log, recs) = Log::open(&path).unwrap();
        for (at, rec) in &recs {
            assert_eq!(log.read(*at).as_ref(), Some(rec));
        }
        // Overwritten or truncated bytes read back as nothing.
        let at = recs[0].0;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at.offset as usize + at.len - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(log.read(at), None, "tampered line accepted");
        std::fs::write(&path, &bytes[..at.offset as usize + 4]).unwrap();
        assert_eq!(log.read(recs[1].0), None, "truncated line accepted");
        // Appends after an outside truncation still report true extents.
        let c = log.append(&pair("c", "3")).unwrap();
        assert_eq!(log.read(c), Some(pair("c", "3")));
        let _ = std::fs::remove_file(&path);
    }
}
