//! End-to-end smoke tests for the `icfgp` CLI binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn icfgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_icfgp"))
}

/// A scratch path unique to this call. Tests run in parallel threads
/// of one process, so the path is keyed by the calling test's name and
/// a process-wide counter, not just the process id: otherwise one
/// test's cleanup deletes another's input.
fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("main").replace("::", "-");
    std::env::temp_dir().join(format!("icfgp-test-{}-{test}-{n}-{name}", std::process::id()))
}

#[test]
fn gen_analyze_rewrite_run_pipeline() {
    let raw = tmp("raw.json");
    let rewritten = tmp("rw.json");

    let out = icfgp()
        .args(["gen", "--workload", "spec:600.perlbench_s", "--arch", "aarch64", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = icfgp().arg("analyze").arg(&raw).output().expect("analyze runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("functions"), "{text}");
    assert!(text.contains("jump tables"), "{text}");

    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "func-ptr", "-o"])
        .arg(&rewritten)
        .output()
        .expect("rewrite runs");
    // 0 = fully clean, 1 = degraded within budget (spec workloads contain
    // deliberately unanalysable functions, which the ladder records as
    // degraded-to-skip).
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("trampolines"));

    // The original and the rewritten binary produce the same output.
    let run_orig = icfgp().arg("run").arg(&raw).output().expect("run original");
    let run_rw = icfgp()
        .args(["run"])
        .arg(&rewritten)
        .arg("--preload-runtime")
        .output()
        .expect("run rewritten");
    assert!(run_orig.status.success());
    assert!(run_rw.status.success(), "{}", String::from_utf8_lossy(&run_rw.stderr));
    let line = |o: &std::process::Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find(|l| l.contains("output"))
            .map(str::to_string)
            .expect("output line")
    };
    assert_eq!(line(&run_orig), line(&run_rw));

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rewritten);
}

#[test]
fn audit_emits_wellformed_sarif() {
    let raw = tmp("sarif-raw.json");
    let out = icfgp()
        .args(["gen", "--workload", "switch_demo", "--arch", "x86-64", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--mode", "func-ptr", "--format", "sarif", "--fault-seed", "1"])
        .output()
        .expect("audit runs");
    // Findings exist under this seed, so the exit code is 1 — but the
    // SARIF on stdout must still be complete and well-formed.
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let sarif: serde::Value = serde_json::from_str(text.trim()).expect("stdout parses as JSON");
    assert_eq!(sarif.get("version").and_then(serde::Value::as_str), Some("2.1.0"), "{text}");
    let results = sarif
        .get("runs")
        .and_then(serde::Value::as_arr)
        .and_then(<[serde::Value]>::first)
        .and_then(|run| run.get("results"))
        .and_then(serde::Value::as_arr)
        .expect("results array");
    assert!(!results.is_empty(), "faulted audit must carry results: {text}");
    assert!(
        results.iter().all(|r| {
            r.get("ruleId")
                .and_then(serde::Value::as_str)
                .is_some_and(|id| id.starts_with("ICFGP-A"))
        }),
        "{text}"
    );

    let _ = std::fs::remove_file(&raw);
}

#[test]
fn run_reports_crash_as_failure() {
    // A rewritten (poisoned) binary run *without* the runtime library
    // may still work when no traps exist; instead corrupt the file to
    // check the error path.
    let bad = tmp("bad.json");
    std::fs::write(&bad, b"not json").unwrap();
    let out = icfgp().arg("run").arg(&bad).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn list_workloads_names_the_suite() {
    let out = icfgp().arg("list-workloads").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("spec:602.gcc_s"));
    assert!(text.contains("docker"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = icfgp().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
