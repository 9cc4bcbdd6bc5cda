//! Mutation fuzz of the wire request decoder: valid lines of every op
//! in [`OP_NAMES`], bent by byte flips, truncation, spliced multi-byte
//! characters, dropped or duplicated members, and out-of-range,
//! negative or fractional numbers. `Request::from_line` must answer
//! every mutant with `Ok` or `Err`, never a panic; an accepted query
//! must also lower through `QuerySpec::build` on the case-study model
//! it names without a panic, and an accepted registration must register
//! (build the model, fingerprint its canonical source) without one.
//!
//! Each mutant is also sent to a core whose line index holds every
//! unmutated query line that can be indexed: its `handle_line` reply
//! must be byte for byte the one `ServeCore::handle` gives for the
//! decoded request, a path that never consults the index. So a
//! near-duplicate of an indexed line never gets that line's report.

use biocheck_expr::{Context, RelOp};
use biocheck_serve::case_studies::{case_study_source, CASE_STUDIES};
use biocheck_serve::json::{parse_json, Json};
use biocheck_serve::registry::Registry;
use biocheck_serve::server::{ServeConfig, ServeCore};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, PropSpec, QueryRequest, QuerySpec, Request, SmcSpecWire,
    OP_NAMES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// One valid request of every op (and of every query type and
/// estimate method) against case study `model`.
fn valid_requests(model: &str) -> Vec<Request> {
    let source = case_study_source(model).unwrap();
    let x = source.states[0].0.clone();
    let y = source.states.last().unwrap().0.clone();
    let smc = SmcSpecWire {
        init: source
            .states
            .iter()
            .enumerate()
            .map(|(i, _)| match i % 4 {
                0 => DistSpec::Uniform(0.1, 0.9),
                1 => DistSpec::Point(0.5),
                2 => DistSpec::Normal { mean: 1.0, sd: 0.1 },
                _ => DistSpec::LogNormal {
                    mu: 0.0,
                    sigma: 0.2,
                },
            })
            .collect(),
        params: source
            .consts
            .first()
            .map(|(n, v)| (n.clone(), DistSpec::Uniform(0.5 * v, 1.5 * v + 1.0)))
            .into_iter()
            .collect(),
        property: PropSpec::Until {
            lhs: Box::new(PropSpec::Not(Box::new(PropSpec::Prop {
                expr: format!("{x} - 2"),
                rel: RelOp::Gt,
            }))),
            rhs: Box::new(PropSpec::Or(vec![
                PropSpec::Eventually {
                    bound: 0.5,
                    inner: Box::new(PropSpec::Prop {
                        expr: format!("{y} * 0.5"),
                        rel: RelOp::Ge,
                    }),
                },
                PropSpec::And(vec![
                    PropSpec::True,
                    PropSpec::Globally {
                        bound: 1.0,
                        inner: Box::new(PropSpec::Prop {
                            expr: format!("{x} + {y}"),
                            rel: RelOp::Le,
                        }),
                    },
                ]),
            ])),
            bound: 2.0,
        },
        t_end: 3.0,
    };
    let query = |id: Option<u64>, query: QuerySpec| {
        Request::Query(QueryRequest {
            model: model.into(),
            id,
            seed: 7,
            budget: BudgetSpec {
                max_samples: Some(500),
                max_paver_boxes: Some(100),
                deadline_ms: Some(1000),
                queue_ms: Some(50),
            },
            query,
            trace: id.is_some(),
        })
    };
    let region = source.states.iter().map(|_| (-0.5, 1.5)).collect();
    vec![
        Request::Register {
            model: model.into(),
            source,
        },
        query(
            None,
            QuerySpec::Estimate {
                smc: smc.clone(),
                method: MethodSpec::Fixed { n: 64 },
            },
        ),
        query(
            Some(1),
            QuerySpec::Estimate {
                smc: smc.clone(),
                method: MethodSpec::Chernoff {
                    eps: 0.1,
                    delta: 0.05,
                },
            },
        ),
        query(
            Some(1 << 60),
            QuerySpec::Estimate {
                smc: smc.clone(),
                method: MethodSpec::Bayes {
                    half_width: 0.05,
                    confidence: 0.95,
                    max_samples: 1000,
                },
            },
        ),
        query(
            None,
            QuerySpec::Sprt {
                smc: smc.clone(),
                theta: 0.5,
                indiff: 0.05,
                alpha: 0.01,
                beta: 0.01,
                max_samples: 2000,
            },
        ),
        query(Some(3), QuerySpec::Robustness { smc, samples: 32 }),
        query(
            None,
            QuerySpec::Stability {
                region,
                r_min: 0.1,
                r_max: 0.4,
            },
        ),
        query(
            Some(4),
            QuerySpec::Lint {
                ranges: vec![(x, 0.0, 2.0), (y, -1.0, 1.0)],
            },
        ),
        Request::Cancel { id: 9 },
        Request::Stats,
        Request::TraceExport,
        Request::Metrics,
        Request::Ping,
        Request::Shutdown,
    ]
}

/// Numbers a client should not send: negative, fractional, huge, at
/// the 2^53 and usize boundaries, subnormal, and `1e999` (which parses
/// to infinity).
const ODD_NUMBERS: [&str; 14] = [
    "-1",
    "-0",
    "-0.5",
    "0.5",
    "0",
    "1e999",
    "-1e999",
    "1e300",
    "9007199254740992",
    "18446744073709551616",
    "1e19",
    "5e-324",
    "2.5e-3",
    "123456789.75",
];

/// Characters of every UTF-8 width, plus the ASCII delimiters.
const SPLICES: [&str; 8] = ["é", "𝛼", "\u{2028}", "\u{FFFF}", "€", "\"", "\\", "\u{0}"];

/// Renders `v` like [`Json::render`], except that object member `n`
/// (counting an object's own members before its children's, as
/// [`drop_member`] does) is written twice, the copy with value `dup`,
/// and that an infinite number (a parsed `1e999`) renders as `±1e999`.
fn render_with_duplicate(v: &Json, n: &mut usize, dup: &str, out: &mut String) {
    match v {
        Json::Obj(m) => {
            let own = (*n < m.len()).then_some(*n);
            *n = match own {
                Some(_) => usize::MAX,
                None => *n - m.len(),
            };
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Json::str(k.clone()).render());
                out.push(':');
                render_with_duplicate(val, n, dup, out);
                if own == Some(i) {
                    out.push_str(&format!(",{}:{dup}", Json::str(k.clone()).render()));
                }
            }
            out.push('}');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_with_duplicate(item, n, dup, out);
            }
            out.push(']');
        }
        Json::Num(v) if v.is_infinite() => out.push_str(if *v > 0.0 { "1e999" } else { "-1e999" }),
        leaf => out.push_str(&leaf.render()),
    }
}

/// Object members in the tree.
fn members(v: &Json) -> usize {
    match v {
        Json::Obj(m) => m.len() + m.values().map(members).sum::<usize>(),
        Json::Arr(items) => items.iter().map(members).sum(),
        _ => 0,
    }
}

/// Drops object member `n` (same order as [`render_with_duplicate`]).
fn drop_member(v: &mut Json, n: &mut usize) -> bool {
    let children: Vec<&mut Json> = match v {
        Json::Obj(m) if *n < m.len() => {
            let key = m.keys().nth(*n).unwrap().clone();
            m.remove(&key);
            return true;
        }
        Json::Obj(m) => {
            *n -= m.len();
            m.values_mut().collect()
        }
        Json::Arr(items) => items.iter_mut().collect(),
        _ => return false,
    };
    children.into_iter().any(|c| drop_member(c, n))
}

/// Byte ranges of the number literals in a rendered line.
fn number_spans(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                spans.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// A char boundary of `s` drawn uniformly from its byte length.
fn boundary(rng: &mut StdRng, s: &str) -> usize {
    let mut i = rng.gen_range(0..=s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// One mutant of `line`.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    match rng.gen_range(0..6u32) {
        0 => {
            // Byte flips; an invalid-UTF-8 result is read the way a
            // lossy peer would send it.
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => line[..boundary(rng, line)].to_string(),
        2 => {
            let mut s = line.to_string();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = boundary(rng, &s);
                s.insert_str(at, SPLICES[rng.gen_range(0..SPLICES.len())]);
            }
            s
        }
        3 => {
            let mut tree = parse_json(line).unwrap();
            let mut n = rng.gen_range(0..members(&tree));
            assert!(drop_member(&mut tree, &mut n));
            let (mut out, mut none) = (String::new(), usize::MAX);
            render_with_duplicate(&tree, &mut none, "", &mut out);
            out
        }
        4 => {
            let tree = parse_json(line).unwrap();
            let mut n = rng.gen_range(0..members(&tree));
            let dup = match rng.gen_range(0..3u32) {
                0 => ODD_NUMBERS[rng.gen_range(0..ODD_NUMBERS.len())].to_string(),
                1 => "null".to_string(),
                _ => "\"é𝛼\"".to_string(),
            };
            let mut out = String::new();
            render_with_duplicate(&tree, &mut n, &dup, &mut out);
            out
        }
        _ => {
            // One number literal becomes an odd one (stacked mutations
            // reach two).
            let spans = number_spans(line);
            let mut s = line.to_string();
            if !spans.is_empty() {
                let (start, end) = spans[rng.gen_range(0..spans.len())];
                s.replace_range(start..end, ODD_NUMBERS[rng.gen_range(0..ODD_NUMBERS.len())]);
            }
            s
        }
    }
}

/// The query requests of [`valid_requests`] as lines the line index
/// can hold: no `id`, untraced, a budget without deadlines, so that a
/// result is memoized, and no random parameters, which the registered
/// case study pinned as constants. `Stability` is left out: without a
/// deadline, the radiation model's runs for minutes in a debug build.
fn indexable_lines(model: &str) -> Vec<String> {
    valid_requests(model)
        .into_iter()
        .filter_map(|request| match request {
            Request::Query(q) if matches!(q.query, QuerySpec::Stability { .. }) => None,
            Request::Query(mut q) => {
                if let QuerySpec::Estimate { smc, .. }
                | QuerySpec::Sprt { smc, .. }
                | QuerySpec::Robustness { smc, .. } = &mut q.query
                {
                    smc.params.clear();
                }
                Some(QueryRequest {
                    id: None,
                    trace: false,
                    budget: BudgetSpec {
                        deadline_ms: None,
                        queue_ms: None,
                        ..q.budget
                    },
                    ..q
                })
            }
            _ => None,
        })
        .map(|q| Request::Query(q).to_json().render())
        .collect()
}

/// The valid lines of every case study (indexable ones included), the
/// indexable ones alone, and each case study's context, built once for
/// all cases.
struct Corpus {
    lines: Vec<String>,
    indexable: Vec<String>,
    contexts: Vec<(&'static str, Context)>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let indexable: Vec<String> = CASE_STUDIES
            .iter()
            .flat_map(|&name| indexable_lines(name))
            .collect();
        Corpus {
            lines: CASE_STUDIES
                .iter()
                .flat_map(|&name| valid_requests(name))
                .map(|r| r.to_json().render())
                .chain(indexable.iter().cloned())
                .collect(),
            indexable,
            contexts: CASE_STUDIES
                .iter()
                .map(|&name| (name, case_study_source(name).unwrap().build().unwrap().0))
                .collect(),
        }
    })
}

fn line_hits(core: &ServeCore) -> f64 {
    let stats = core.stats_json();
    let hits = stats.get("cache").and_then(|c| c.get("line_hits"));
    hits.and_then(Json::as_f64).unwrap()
}

/// A core serving every case study, whose line index holds every
/// indexable line. It is then shut down, so that a mutant that misses
/// is refused at once (`shutting_down`) instead of computed; hits are
/// still answered.
fn core() -> &'static ServeCore {
    static CORE: OnceLock<ServeCore> = OnceLock::new();
    CORE.get_or_init(|| {
        let core = ServeCore::new(ServeConfig::default());
        for name in CASE_STUDIES {
            core.register(name, &case_study_source(name).unwrap())
                .unwrap();
        }
        for line in &corpus().indexable {
            let (miss, _) = core.handle_line(line);
            assert!(miss.starts_with("{\"cached\":false,"), "{line}: {miss}");
            let (hit, _) = core.handle_line(line);
            let before = line_hits(&core);
            assert_eq!(core.handle_line(line).0, hit);
            assert_eq!(line_hits(&core), before + 1.0, "{line}");
        }
        assert!(core.handle(&Request::Shutdown).1);
        core
    })
}

/// A reply with its `trace` member, whose span timings differ from one
/// answer to the next, removed.
fn without_trace(reply: &str) -> String {
    match parse_json(reply) {
        Ok(Json::Obj(mut members)) => {
            members.remove("trace");
            Json::Obj(members).render()
        }
        _ => reply.to_string(),
    }
}

/// Sends `line` to the indexed core and checks its reply against the
/// typed path's for the decoded request. Registrations, which would
/// replace the core's models, and `stats`, `metrics` and
/// `trace_export`, whose replies change from call to call, are left
/// out.
fn check_against_typed_path(line: &str) -> Result<(), String> {
    let core = core();
    let expected = match Request::from_line(line) {
        Err(e) => (
            Json::obj([
                ("ok", Json::Bool(false)),
                ("kind", Json::str("invalid_request")),
                ("error", Json::str(e)),
            ])
            .render(),
            false,
        ),
        Ok(Request::Register { .. } | Request::Stats | Request::Metrics | Request::TraceExport) => {
            return Ok(())
        }
        Ok(request) => {
            let (reply, stop) = core.handle(&request);
            (reply.render(), stop)
        }
    };
    let (reply, stop) = core.handle_line(line);
    if (without_trace(&reply), stop) == (without_trace(&expected.0), expected.1) {
        Ok(())
    } else {
        Err(format!(
            "{line:?}: handle_line replied {reply}, the typed path {}",
            expected.0
        ))
    }
}

/// Decodes `line` and lowers what it accepts on the context of the
/// case study it names, reporting a panic as a failure that names the
/// line.
fn decode_and_build(line: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| match Request::from_line(line) {
        Ok(Request::Query(q)) => {
            let _ = q.budget.build();
            if let Some((_, cx)) = corpus().contexts.iter().find(|(n, _)| *n == q.model) {
                let _ = q.query.build(&mut cx.clone());
            }
        }
        Ok(Request::Register { model, source }) => {
            let _ = Registry::new().register(&model, &source);
        }
        _ => {}
    }))
    .map_err(|_| format!("panicked on {line:?}"))
}

#[test]
fn valid_lines_cover_every_op_and_decode_back() {
    for name in CASE_STUDIES {
        let requests = valid_requests(name);
        let ops: BTreeSet<String> = requests
            .iter()
            .map(|r| r.to_json().get("op").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(ops, OP_NAMES.iter().map(|s| s.to_string()).collect());
        let (_, cx) = corpus().contexts.iter().find(|(n, _)| *n == name).unwrap();
        for request in requests {
            let line = request.to_json().render();
            assert_eq!(Request::from_line(&line).as_ref(), Ok(&request), "{line}");
            if let Request::Query(q) = &request {
                q.query
                    .build(&mut cx.clone())
                    .unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn mutated_request_lines_never_panic(seed in 0..u64::MAX) {
        let mut rng = proptest::new_rng(seed);
        let lines = &corpus().lines;
        let line = &lines[rng.gen_range(0..lines.len())];
        let mut mutant = mutate(&mut rng, line);
        // Now and then a second mutation stacks two kinds.
        if rng.gen_bool(0.3) && parse_json(&mutant).is_ok_and(|v| members(&v) > 0) {
            mutant = mutate(&mut rng, &mutant);
        }
        decode_and_build(&mutant)?;
        check_against_typed_path(&mutant)?;
    }
}
