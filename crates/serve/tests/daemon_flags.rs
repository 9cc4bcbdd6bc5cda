//! The `biocheckd` command line: a removed, misspelled or malformed flag
//! is refused with the usage text and exit status 2 instead of being
//! silently ignored, and every flag the CI and benchmark scripts pass
//! still starts the daemon.

use biocheck_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

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

#[test]
fn scripted_flags_still_start_the_daemon() {
    let dir = std::env::temp_dir();
    let tmp = |name: &str| {
        dir.join(format!("biocheck-flags-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    };
    let (persist, registry, trace_out) = (tmp("cache"), tmp("registry"), tmp("trace"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_biocheckd"))
        .args(["--addr", "127.0.0.1:0", "--persist", &persist])
        .args([
            "--registry",
            &registry,
            "--trace",
            "--trace-out",
            &trace_out,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("biocheckd spawns");
    // Held open until the daemon exits: it prints again at shutdown.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("banner line");
    let addr = line
        .trim()
        .strip_prefix("biocheckd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    Client::connect(addr.as_str())
        .expect("daemon accepts connections")
        .shutdown()
        .expect("daemon shuts down");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("shutdown lines");
    assert!(rest.contains("biocheckd: shutdown"), "{rest}");
    assert!(child.wait().expect("daemon exits").success());
    for path in [persist, registry, trace_out] {
        let _ = std::fs::remove_file(path);
    }
}
