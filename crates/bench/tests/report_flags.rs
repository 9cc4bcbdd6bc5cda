//! The `report` command line takes no arguments: any argument, the
//! removed bench-mode flags included, is refused with the usage line and
//! exit status 2 instead of being ignored (which would start the
//! minutes-long E1–E9 sweep).

use std::process::Command;

#[test]
fn report_refuses_any_argument_with_usage() {
    for arg in [
        "--bench-only",
        "--bench-version",
        "--compare",
        "--pool-probe",
        "--bench-onyl",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .arg(arg)
            .output()
            .expect("report runs");
        assert_eq!(out.status.code(), Some(2), "{arg} must be refused");
        assert!(out.stdout.is_empty(), "{arg} must not start the sweep");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: report"), "{arg}: {err}");
    }
}
