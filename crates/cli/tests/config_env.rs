//! End-to-end checks that garbage in the environment knobs
//! (`RHPL_MAILBOX`, `RHPL_MAILBOX_CAP`, `RHPL_TRANSPORT`, `RHPL_KERNEL`,
//! `RHPL_ELEMENT`, `RHPL_COMM_TIMEOUT`) is rejected by the `rhpl` binary
//! *up front* with the typed configuration message and exit code 2 — not
//! deep inside a universe as a panic — and that a bad flag, flag value or
//! unknown argument is a usage error with exit code 1. Each case spawns
//! the real binary so the whole path (argv and env → `RunOpts::parse` →
//! stderr → exit code) is exercised.

use std::process::Command;

fn rhpl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhpl"))
}

/// Runs `rhpl --sample` (the cheapest subcommand) with one env var set and
/// returns (exit code, stderr).
fn run_with_env(var: &str, value: &str) -> (i32, String) {
    let out = rhpl()
        .arg("--sample")
        .env(var, value)
        .output()
        .expect("spawn rhpl");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_mailbox_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_MAILBOX", "quantum");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("configuration error"), "stderr: {stderr}");
    assert!(stderr.contains("RHPL_MAILBOX"), "stderr: {stderr}");
    assert!(
        stderr.contains("quantum"),
        "the offending value must be echoed back, stderr: {stderr}"
    );
}

#[test]
fn bad_mailbox_cap_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_MAILBOX_CAP", "-3");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("RHPL_MAILBOX_CAP"), "stderr: {stderr}");
    assert!(stderr.contains("-3"), "stderr: {stderr}");
}

#[test]
fn bad_transport_is_a_typed_config_error() {
    // `shm` names a transport that no longer exists: rejected like any typo.
    for bad in ["carrier-pigeon", "shm"] {
        let (code, stderr) = run_with_env("RHPL_TRANSPORT", bad);
        assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
        assert!(stderr.contains("RHPL_TRANSPORT"), "stderr: {stderr}");
        assert!(stderr.contains(bad), "stderr: {stderr}");
        assert!(
            stderr.contains("inproc") || stderr.contains("tcp"),
            "the error should name the accepted values, stderr: {stderr}"
        );
    }
}

#[test]
fn bad_kernel_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_KERNEL", "AVX512");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("RHPL_KERNEL"), "stderr: {stderr}");
    assert!(
        stderr.contains("AVX512"),
        "the offending value must be echoed back, stderr: {stderr}"
    );
    assert!(
        stderr.contains("scalar") && stderr.contains("simd"),
        "the error should name the accepted values, stderr: {stderr}"
    );
}

#[test]
fn bad_element_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_ELEMENT", "f16");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("RHPL_ELEMENT"), "stderr: {stderr}");
    assert!(stderr.contains("f16"), "stderr: {stderr}");
    assert!(
        stderr.contains("f64") && stderr.contains("f32"),
        "the error should name the accepted values, stderr: {stderr}"
    );
}

#[test]
fn bad_comm_timeout_is_a_typed_config_error() {
    let (code, stderr) = run_with_env("RHPL_COMM_TIMEOUT", "soon");
    assert_eq!(code, 2, "config errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("RHPL_COMM_TIMEOUT"), "stderr: {stderr}");
    assert!(stderr.contains("soon"), "stderr: {stderr}");
}

#[test]
fn bad_element_flag_is_a_usage_error() {
    // The `--element` flag goes through the same parser as the env var but
    // is a usage error (exit 1), matching the other flags. It is resolved
    // before the HPL.dat is read, so no input file is needed here.
    let out = rhpl()
        .args(["--element", "f16"])
        .output()
        .expect("spawn rhpl");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--element") && stderr.contains("f16"),
        "stderr: {stderr}"
    );
}

#[test]
fn valid_env_values_are_accepted() {
    for (var, value) in [
        ("RHPL_MAILBOX", "lockfree"),
        ("RHPL_MAILBOX", "mutex"),
        ("RHPL_MAILBOX_CAP", "256"),
        ("RHPL_TRANSPORT", "inproc"),
        ("RHPL_TRANSPORT", "tcp"),
        ("RHPL_KERNEL", "auto"),
        ("RHPL_KERNEL", "scalar"),
        ("RHPL_KERNEL", "simd"),
        ("RHPL_ELEMENT", "f64"),
        ("RHPL_ELEMENT", "f32"),
        ("RHPL_COMM_TIMEOUT", "30"),
    ] {
        let (code, stderr) = run_with_env(var, value);
        assert_eq!(code, 0, "{var}={value} must be accepted, stderr: {stderr}");
    }
}

/// `rhpl launch` validates its own arguments with the same discipline:
/// unknown transports and malformed rank counts are usage errors (exit 1),
/// not panics — and a bad fabric env still beats them to exit 2.
#[test]
fn launch_rejects_bad_arguments_cleanly() {
    for bad in ["telepathy", "shm"] {
        let out = rhpl()
            .args(["launch", "--ranks", "2", "--transport", bad])
            .output()
            .expect("spawn rhpl");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "stderr: {stderr}");
    }

    let out = rhpl()
        .args(["launch", "--ranks", "zero"])
        .output()
        .expect("spawn rhpl");
    assert_eq!(out.status.code(), Some(1));

    // Env validation still runs first: a launch invocation inherits the
    // same typed config gate as every other mode.
    let out = rhpl()
        .args(["launch", "--ranks", "4"])
        .env("RHPL_TRANSPORT", "carrier-pigeon")
        .output()
        .expect("spawn rhpl");
    assert_eq!(out.status.code(), Some(2));
}

/// Unparsable flag values and unknown flags are usage errors (exit 1)
/// whose message names the flag and the value — never a silent default.
/// All of them are caught before the input file is read.
#[test]
fn bad_flag_values_and_unknown_flags_are_usage_errors() {
    for (args, flag, value) in [
        (&["--seed", "abc"][..], "--seed", "abc"),
        (&["--threads", "abc"], "--threads", "abc"),
        (&["--split-frac", "x"], "--split-frac", "x"),
        (&["--ckpt-every", "-1"], "--ckpt-every", "-1"),
        (&["--comm-timeout", "1s"], "--comm-timeout", "1s"),
        (
            &["launch", "--ranks", "2", "--seed", "abc"],
            "--seed",
            "abc",
        ),
        (
            &["s.dat", "--trace-jsn", "out.json"],
            "--trace-jsn",
            "--trace-jsn",
        ),
    ] {
        let out = rhpl().args(args).output().expect("spawn rhpl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}, stderr: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{args:?} must name {flag} and {value}, stderr: {stderr}"
        );
    }
}

/// `rhpl launch` runs the f64 pipeline (or HPL-MxP under `--mxp`): an f32
/// element request is refused and points at `--mxp` — exit 1 from the
/// flag, exit 2 from the environment.
#[test]
fn launch_rejects_an_f32_element() {
    let out = rhpl()
        .args(["launch", "--ranks", "2", "--element", "f32"])
        .output()
        .expect("spawn rhpl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--mxp"), "stderr: {stderr}");

    let out = rhpl()
        .args(["launch", "--ranks", "2"])
        .env("RHPL_ELEMENT", "f32")
        .output()
        .expect("spawn rhpl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("RHPL_ELEMENT"), "stderr: {stderr}");
    assert!(stderr.contains("--mxp"), "stderr: {stderr}");
}

/// A launched job writes no phase trace yet, so `--trace-json` is refused
/// rather than accepted and ignored.
#[test]
fn launch_rejects_trace_json() {
    let out = rhpl()
        .args(["launch", "--ranks", "2", "--trace-json", "out.json"])
        .output()
        .expect("spawn rhpl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--trace-json"), "stderr: {stderr}");
}
