//! Reply bytes: a query reply line is byte for byte the rendering each
//! reply used to build afresh, `Json::obj([ok, model, cached, ("report",
//! report_to_json(&r)), id?, trace?]).render()`, kept here as the
//! reference. Checked for misses, RAM hits, hits promoted from the spill
//! log after a warm restart, replies with an `id`, every
//! wire-producible report kind, and traced replies (every member but
//! the trace spans). A line answered from the line index gets the
//! normal path's hit line, and a traced, id-bearing or refused line is
//! never answered from it. The spill log's lines are the reference
//! codec's, and a log in that format warms a new core.

use biocheck_engine::Report;
use biocheck_serve::cache::persist::CacheLog;
use biocheck_serve::server::{ServeConfig, ServeCore};
use biocheck_serve::wire::{
    report_from_json, report_to_json, BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec,
    QueryRequest, QuerySpec, Request, SmcSpecWire,
};
use biocheck_serve::{fingerprint64, parse_json, Json};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn decay_source() -> ModelSource {
    ModelSource {
        states: vec![("x".into(), "-k*x".into())],
        consts: vec![("k".into(), 1.0)],
    }
}

fn smc() -> SmcSpecWire {
    SmcSpecWire {
        init: vec![DistSpec::Uniform(0.5, 1.5)],
        params: vec![],
        property: PropSpec::Eventually {
            bound: 0.01,
            inner: Box::new(PropSpec::Prop {
                expr: "x - 1".into(),
                rel: biocheck_expr::RelOp::Ge,
            }),
        },
        t_end: 0.01,
    }
}

/// One query of each wire-producible report kind.
fn queries(seed: u64) -> Vec<QueryRequest> {
    let specs = [
        QuerySpec::Estimate {
            smc: smc(),
            method: MethodSpec::Fixed { n: 30 },
        },
        QuerySpec::Sprt {
            smc: smc(),
            theta: 0.5,
            indiff: 0.1,
            alpha: 0.05,
            beta: 0.05,
            max_samples: 500,
        },
        QuerySpec::Robustness {
            smc: smc(),
            samples: 20,
        },
        QuerySpec::Stability {
            region: vec![(-1.0, 1.0)],
            r_min: 0.1,
            r_max: 0.5,
        },
        QuerySpec::Lint {
            ranges: vec![("x".into(), 0.0, 2.0)],
        },
    ];
    specs
        .into_iter()
        .map(|query| QueryRequest {
            model: "decay".into(),
            id: None,
            seed,
            budget: BudgetSpec::default(),
            query,
            trace: false,
        })
        .collect()
}

/// The wire's integer rule: below 2^53 a number, else a decimal string.
fn u64_to_json(v: u64) -> Json {
    if v < (1 << 53) {
        Json::num(v as f64)
    } else {
        Json::str(v.to_string())
    }
}

/// The reply as each one used to be rendered.
fn reference(qr: &QueryRequest, report: &Report, cached: bool, trace: Option<Json>) -> String {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("model", Json::str(qr.model.clone())),
        ("cached", Json::Bool(cached)),
        ("report", report_to_json(report)),
    ];
    if let Some(id) = qr.id {
        pairs.push(("id", u64_to_json(id)));
    }
    if let Some(trace) = trace {
        pairs.push(("trace", trace));
    }
    Json::obj(pairs).render()
}

/// A spill-log line as the log codec used to render it.
fn reference_record(key: &str, cost: usize, report: &Report) -> String {
    let payload = Json::obj([
        ("key", Json::str(key)),
        ("cost", u64_to_json(cost as u64)),
        ("report", report_to_json(report)),
    ])
    .render();
    format!("{} {payload}", fingerprint64(&payload))
}

fn line(qr: &QueryRequest) -> String {
    Request::Query(qr.clone()).to_json().render()
}

fn new_core(persist: Option<&Path>) -> ServeCore {
    let core = ServeCore::new(ServeConfig {
        persist: persist.map(Path::to_path_buf),
        ..ServeConfig::default()
    });
    core.register("decay", &decay_source()).unwrap();
    core
}

fn tmp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("biocheck-reply-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The spill log's record lines, header skipped.
fn log_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().skip(1).map(str::to_string).collect()
}

/// Hits answered from the line index so far.
fn line_hits(core: &ServeCore) -> f64 {
    let stats = core.stats_json();
    let hits = stats.get("cache").and_then(|c| c.get("line_hits"));
    hits.and_then(Json::as_f64).unwrap()
}

/// Sends `line` again, expecting the line index to answer it with
/// `hit`, the normal path's hit line.
fn assert_indexed_hit(core: &ServeCore, line: &str, hit: &str) {
    let before = line_hits(core);
    let (indexed, stop) = core.handle_line(line);
    assert!(!stop);
    assert_eq!(indexed, hit);
    assert_eq!(line_hits(core), before + 1.0, "{line}");
}

/// The reply with its phase timings, the one part of a report that
/// differs between two runs, set to null.
fn without_timings(reply: &str) -> String {
    let mut out = reply.to_string();
    for member in ["\"compile_ms\":", "\"run_ms\":"] {
        let start = out.find(member).expect("timing member") + member.len();
        let len = out[start..].find([',', '}']).unwrap();
        out.replace_range(start..start + len, "null");
    }
    out
}

/// The reply's `report` member as sent: the bytes after `"report":` up
/// to the closing brace (replies without `trace`).
fn report_bytes(reply: &str) -> &str {
    let start = reply.find("\"report\":").unwrap() + "\"report\":".len();
    &reply[start..reply.len() - 1]
}

#[test]
fn misses_and_ram_hits_match_the_reference_for_every_kind() {
    let core = new_core(None);
    for qr in queries(3) {
        let (miss, stop) = core.handle_line(&line(&qr));
        assert!(!stop);
        // A RAM hit hands back the report the miss made, timings
        // included, so the reference is exact.
        let (report, cached) = core.run_query(&qr).unwrap();
        assert!(cached, "{miss}");
        assert_eq!(miss, reference(&qr, &report, false, None));
        let (hit, _) = core.handle_line(&line(&qr));
        assert_eq!(hit, reference(&qr, &report, true, None));
        // The hit entered the line into the index, which answers it
        // with the same bytes, surrounding whitespace or not.
        assert_indexed_hit(&core, &line(&qr), &hit);
        assert_indexed_hit(&core, &format!(" {}\r\n", line(&qr)), &hit);
        // In process, `handle` answers the same line, parsed.
        let (json, _) = core.handle(&Request::Query(qr.clone()));
        assert_eq!(json.render(), hit);
    }
    assert_eq!(line_hits(&core), 10.0);
}

/// Only a bare hit reply comes from the line index: a traced or
/// id-bearing request, a refused line, and any line answered while the
/// trace hub is armed take the normal path every time.
#[test]
fn traced_id_bearing_and_refused_lines_are_never_answered_from_the_index() {
    let core = new_core(None);
    let mut lines: Vec<String> = queries(30)
        .into_iter()
        .flat_map(|qr| {
            let traced = QueryRequest {
                trace: true,
                ..qr.clone()
            };
            let with_id = QueryRequest { id: Some(5), ..qr };
            [line(&traced), line(&with_id)]
        })
        .collect();
    let unknown = QueryRequest {
        model: "nope".into(),
        ..queries(30).swap_remove(4)
    };
    let mut pinned = queries(30).swap_remove(0);
    if let QuerySpec::Estimate { smc, .. } = &mut pinned.query {
        smc.params = vec![("k".into(), DistSpec::Uniform(0.5, 1.5))];
    }
    lines.extend([line(&unknown), line(&pinned), "{\"op\":\"query\"}".into()]);
    for line in &lines {
        let replies: Vec<String> = (0..3).map(|_| core.handle_line(line).0).collect();
        if replies[0].contains("\"kind\":\"invalid_request\"") {
            assert!(replies.iter().all(|r| r == &replies[0]), "{replies:?}");
        } else {
            assert!(
                replies[2].starts_with("{\"cached\":true,"),
                "{}",
                replies[2]
            );
        }
    }
    assert_eq!(line_hits(&core), 0.0);

    // While the trace hub is armed, no line enters the index.
    let armed = new_core(None);
    armed.trace_hub().arm();
    let plain = line(&queries(30).swap_remove(0));
    let replies: Vec<String> = (0..3).map(|_| armed.handle_line(&plain).0).collect();
    assert!(
        replies[2].starts_with("{\"cached\":true,"),
        "{}",
        replies[2]
    );
    assert_eq!(line_hits(&armed), 0.0);
}

#[test]
fn replies_with_an_id_and_traced_replies_match_the_reference() {
    let core = new_core(None);
    let with_id = |mut qr: QueryRequest, id| {
        qr.id = Some(id);
        qr
    };
    // Small and above-2^53 ids (the latter travel as strings).
    for (i, id) in [7, u64::MAX].into_iter().enumerate() {
        let qr = with_id(queries(10 + i as u64).swap_remove(0), id);
        let (miss, _) = core.handle_line(&line(&qr));
        let (report, _) = core.run_query(&qr).unwrap();
        assert_eq!(miss, reference(&qr, &report, false, None));
        let (hit, _) = core.handle_line(&line(&qr));
        assert_eq!(hit, reference(&qr, &report, true, None));
    }
    // Traced: a miss and its hit. The trace member comes last; every
    // byte before it is the reference's.
    for kind in [0, 4] {
        let mut qr = with_id(queries(20).swap_remove(kind), 9);
        qr.trace = true;
        for cached in [false, true] {
            let (reply, _) = core.handle_line(&line(&qr));
            let (report, _) = core.run_query(&qr).unwrap();
            let untraced = reference(&qr, &report, cached, None);
            let head = format!("{},\"trace\":", &untraced[..untraced.len() - 1]);
            assert!(reply.starts_with(&head), "{reply}\n{head}");
            let trace = parse_json(&reply).unwrap();
            let spans = trace.get("trace").and_then(|t| t.get("spans"));
            assert!(spans.and_then(Json::as_arr).is_some_and(|s| !s.is_empty()));
        }
    }
}

/// With a spill file a miss is appended and only indexed; the next
/// lookup reads it back and promotes it, rendering its payload from the
/// decoded report (timings null), and later hits are RAM hits. After a
/// restart the compacted log is the reference codec's, and a log
/// written in that format warms a new core.
#[test]
fn log_promoted_hits_and_log_lines_match_the_reference() {
    let path = tmp_path("promote");
    let qrs = queries(5);
    let mut misses = Vec::new();
    {
        let core = new_core(Some(&path));
        for qr in &qrs {
            let (miss, _) = core.handle_line(&line(qr));
            // The appended line carries the reply's payload bytes.
            let lines = log_lines(&path);
            let rec = CacheLog::decode_line(lines.last().unwrap()).unwrap();
            let payload = format!(
                "{{\"cost\":{},\"key\":{},\"report\":{}}}",
                rec.cost,
                Json::str(rec.key.clone()).render(),
                report_bytes(&miss)
            );
            let appended = format!("{} {payload}", fingerprint64(&payload));
            assert_eq!(lines.last().unwrap(), &appended);
            // The log read-back hit, then a RAM hit, then the line
            // index's.
            let (promoted, _) = core.handle_line(&line(qr));
            let (report, cached) = core.run_query(qr).unwrap();
            assert!(cached && report.provenance.run_time.is_none());
            assert_eq!(promoted, reference(qr, &report, true, None));
            assert_eq!(without_timings(&miss), reference(qr, &report, false, None));
            let (hit, _) = core.handle_line(&line(qr));
            assert_eq!(hit, promoted);
            assert_indexed_hit(&core, &line(qr), &promoted);
            misses.push(report);
        }
    }

    // Warm restart: the hits are promoted from the compacted log, and
    // each line is then answered from the index.
    let core = new_core(Some(&path));
    for (qr, report) in qrs.iter().zip(&misses) {
        let (hit, _) = core.handle_line(&line(qr));
        assert_eq!(hit, reference(qr, report, true, None));
        assert_indexed_hit(&core, &line(qr), &hit);
    }
    // A purge drops the resident memos but not their log locators, so
    // with the same definition registered again the index answers each
    // line through a log read-back.
    let changed = ModelSource {
        states: vec![("x".into(), "-2*k*x".into())],
        ..decay_source()
    };
    core.register("decay", &changed).unwrap();
    core.register("decay", &decay_source()).unwrap();
    let before = core.cache_stats();
    for (qr, report) in qrs.iter().zip(&misses) {
        assert_indexed_hit(&core, &line(qr), &reference(qr, report, true, None));
    }
    let after = core.cache_stats();
    assert_eq!(
        after.inserts - before.inserts,
        qrs.len(),
        "promoted from the log"
    );
    let lines = log_lines(&path);
    assert_eq!(lines.len(), qrs.len());
    let records: Vec<_> = lines
        .iter()
        .map(|l| CacheLog::decode_line(l).unwrap())
        .collect();
    for (l, rec) in lines.iter().zip(&records) {
        assert_eq!(l, &reference_record(&rec.key, rec.cost, &rec.memo.report));
    }
    drop(core);

    // A log in the reference format, its reports carrying timings as
    // a computing daemon's appends do, warms a new core.
    let written = tmp_path("reference-written");
    let mut text = String::from("biocheck-cache v2\n");
    for rec in &records {
        let mut report = (*rec.memo.report).clone();
        report.provenance.compile_time = Some(Duration::from_micros(1234));
        report.provenance.run_time = Some(Duration::from_micros(5678));
        text += &reference_record(&rec.key, rec.cost, &report);
        text.push('\n');
    }
    std::fs::write(&written, text).unwrap();
    let core = new_core(Some(&written));
    for (qr, report) in qrs.iter().zip(&misses) {
        let (hit, _) = core.handle_line(&line(qr));
        assert_eq!(hit, reference(qr, report, true, None));
        let back = report_from_json(parse_json(report_bytes(&hit)).as_ref().unwrap()).unwrap();
        assert_eq!(back.fingerprint(), report.fingerprint());
    }
    let stats = core.persist_stats().unwrap();
    assert_eq!((stats.loaded, stats.skipped), (qrs.len(), 0));
    drop(core);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&written);
}
