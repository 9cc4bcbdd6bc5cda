//! The `biocheckd` command line: a removed, misspelled or malformed flag
//! is refused with the usage text and exit status 2 instead of being
//! silently ignored, and every flag the CI and benchmark scripts pass
//! still starts the daemon.

use biocheck_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_biocheckd"))
        .args(args)
        .output()
        .expect("biocheckd runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must be refused");
    assert!(out.stdout.is_empty(), "{args:?} must not start serving");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_and_malformed_flags_exit_with_usage() {
    let err = refused(&["--max-arena-nodes", "5"]);
    assert!(err.contains("unknown flag \"--max-arena-nodes\""), "{err}");
    assert!(err.contains("usage: biocheckd"), "{err}");
    for args in [
        &["--max-artifacts", "5"][..],
        &["--persits", "/tmp/x"],
        &["--addr"],
    ] {
        assert!(refused(args).contains("usage: biocheckd"));
    }
    let err = refused(&["--max-queue", "abc"]);
    assert!(err.contains("--max-queue: invalid value \"abc\""), "{err}");
    assert!(err.contains("usage: biocheckd"), "{err}");
}

/// A `biocheckd` child on an ephemeral loopback port. Its stdout stays
/// piped until it exits: the daemon prints again at shutdown.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_biocheckd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("biocheckd spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("banner line");
        let addr = line
            .trim()
            .strip_prefix("biocheckd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// Shuts the daemon down over the wire and checks it exits cleanly.
    fn stop(mut self) {
        Client::connect(self.addr.as_str())
            .expect("daemon accepts connections")
            .shutdown()
            .expect("daemon shuts down");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("shutdown lines");
        assert!(rest.contains("biocheckd: shutdown"), "{rest}");
        assert!(self.child.wait().expect("daemon exits").success());
    }
}

impl Drop for Daemon {
    /// A failed assertion must not leave the daemon running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn scripted_flags_still_start_the_daemon() {
    let dir = std::env::temp_dir();
    let tmp = |name: &str| {
        dir.join(format!("biocheck-flags-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    };
    let (persist, registry, trace_out) = (tmp("cache"), tmp("registry"), tmp("trace"));
    Daemon::start(&[
        "--persist",
        &persist,
        "--registry",
        &registry,
        "--trace",
        "--trace-out",
        &trace_out,
    ])
    .stop();
    for path in [persist, registry, trace_out] {
        let _ = std::fs::remove_file(path);
    }
}

/// Raw mode forwards each stdin line as it is and prints the daemon's
/// reply line, so a value the client could not render itself (`1e999`
/// parses to infinity) reaches the daemon, which answers
/// `invalid_request`. The client used to decode and re-render each line
/// and panicked on such a value before sending anything.
#[test]
fn raw_client_forwards_lines_the_daemon_refuses() {
    let daemon = Daemon::start(&[]);
    let register = r#"{"op":"register","model":"decay","source":{"states":[["x","-k*x"]],"consts":[["k",1]]}}"#;
    let smc = |t_end: &str| {
        format!(
            r#"{{"op":"query","model":"decay","seed":1,"query":{{"type":"estimate","method":{{"type":"fixed","n":8}},"smc":{{"init":[{{"dist":"uniform","lo":0.5,"hi":1.5}}],"params":[],"property":{{"type":"eventually","bound":0.01,"inner":{{"type":"prop","expr":"x - 1","rel":"ge"}}}},"t_end":{t_end}}}}}}}"#
        )
    };
    let region = r#"{"op":"query","model":"decay","seed":1,"query":{"type":"stability","region":[[-1e999,1]],"r_min":0.1,"r_max":0.4}}"#;
    let input = [
        register.to_string(),
        smc("1e999"),
        region.to_string(),
        "not json".to_string(),
        r#"{"op":"ping"}"#.to_string(),
    ]
    .join("\n");
    let mut client = Command::new(env!("CARGO_BIN_EXE_biocheck_client"))
        .args(["--connect", &daemon.addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("biocheck_client spawns");
    {
        use std::io::Write;
        let mut stdin = client.stdin.take().expect("piped stdin");
        writeln!(stdin, "{input}").expect("lines written");
    }
    let out = client.wait_with_output().expect("client exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 5, "{stdout}");
    assert!(replies[0].contains(r#""fingerprint""#), "{}", replies[0]);
    for (reply, what) in replies[1..4].iter().zip(["t_end", "region", "JSON"]) {
        assert!(reply.contains(r#""kind":"invalid_request""#), "{reply}");
        assert!(reply.contains(r#""ok":false"#), "{reply}");
        assert!(reply.contains(what), "{what}: {reply}");
    }
    assert!(replies[4].contains(r#""ok":true"#), "{}", replies[4]);

    daemon.stop();
}
