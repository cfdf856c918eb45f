//! Cross-transport determinism of the HPL-MxP pipeline: `rhpl --mxp` must
//! produce a bitwise-identical phase-trace `seq_hash` (and residual) over
//! inproc and tcp — the transport moves bytes, it never changes them
//! or the schedule. Each case spawns the real binary with `--trace-json`
//! and compares fields of the emitted `BENCH_hpl.json`.

use std::process::Command;

/// Pulls the string right after `"key": ` out of a flat JSON object —
/// enough to compare the scalar fields of `BENCH_hpl.json` byte-for-byte
/// without a JSON parser (the workspace serde_json shim only serializes).
fn json_field<'a>(doc: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in JSON"));
    let rest = doc[at + needle.len()..].trim_start();
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} value"));
    rest[..end].trim().trim_matches('"')
}

/// Writes the built-in sample HPL.dat to a temp path and returns it (the
/// sample is the parser's own reference input, so it always parses).
fn sample_dat() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rhpl-mxp-det-{}.dat", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rhpl"))
        .arg("--sample")
        .output()
        .expect("spawn rhpl --sample");
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).expect("write sample dat");
    path
}

/// Runs `rhpl <sample> --mxp --trace-json` over `transport` and returns
/// the (seq_hash, residual, sweeps) triple of the single sample run.
fn run_mxp(dat: &std::path::Path, transport: &str) -> (String, String, String) {
    let json_path = std::env::temp_dir().join(format!(
        "rhpl-mxp-det-{}-{transport}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_rhpl"))
        .arg(dat)
        .args(["--mxp", "--trace-json"])
        .arg(&json_path)
        .env("RHPL_TRANSPORT", transport)
        // Pin the kernel: scalar-vs-simd hosts must not change what this
        // test compares (any one kernel is deterministic across transports).
        .env("RHPL_KERNEL", "scalar")
        .output()
        .expect("spawn rhpl");
    assert_eq!(
        out.status.code(),
        Some(0),
        "transport {transport}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json_path).expect("read BENCH_hpl.json");
    let _ = std::fs::remove_file(&json_path);
    assert_eq!(json_field(&doc, "mode"), "mxp", "transport {transport}");
    assert_eq!(json_field(&doc, "element"), "f32", "transport {transport}");
    assert_eq!(
        json_field(&doc, "passed"),
        "true",
        "transport {transport} --mxp must pass the residual gate"
    );
    (
        json_field(&doc, "seq_hash").to_owned(),
        json_field(&doc, "residual").to_owned(),
        json_field(&doc, "sweeps").to_owned(),
    )
}

#[test]
fn mxp_seq_hash_is_bitwise_identical_across_transports() {
    let dat = sample_dat();
    let (inproc_hash, inproc_res, inproc_sweeps) = run_mxp(&dat, "inproc");
    assert!(
        inproc_hash.starts_with("0x"),
        "seq_hash must be hex, got {inproc_hash}"
    );
    let (hash, res, sweeps) = run_mxp(&dat, "tcp");
    assert_eq!(
        hash, inproc_hash,
        "tcp seq_hash must be bitwise equal to inproc"
    );
    assert_eq!(
        res, inproc_res,
        "tcp residual must be bitwise equal to inproc"
    );
    assert_eq!(
        sweeps, inproc_sweeps,
        "tcp must converge in the same sweep count as inproc"
    );
    let _ = std::fs::remove_file(&dat);
}
