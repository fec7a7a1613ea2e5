//! The CLI exit-code contract (satellite of the robustness PR):
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 0    | fully clean — every function at its requested mode  |
//! | 1    | degraded, but within the error budget               |
//! | 2    | degradation budget exceeded                         |
//! | 3    | internal error (bad file, rewrite failure, ...)     |
//! | 64   | usage error                                         |
//!
//! The fault seeds below were chosen empirically: `switch_demo` on
//! x86-64 with `--fault-seed 1` (standard intensity) degrades one of
//! its two functions, which exceeds the default 25% budget but fits a
//! budget of 1.0.

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
    std::env::temp_dir().join(format!("icfgp-exit-{}-{test}-{n}-{name}", std::process::id()))
}

fn gen_switch_demo() -> PathBuf {
    let raw = tmp("sd.json");
    let out = icfgp()
        .args(["gen", "--workload", "switch_demo", "--arch", "x86-64", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    raw
}

#[test]
fn clean_rewrite_exits_zero() {
    let raw = gen_switch_demo();
    let rw = tmp("clean.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn degraded_within_budget_exits_one() {
    let raw = gen_switch_demo();
    let rw = tmp("degraded.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded"), "{text}");
    // Degraded output still verifies with zero errors.
    assert!(text.contains("verify     : 0 error(s)"), "{text}");
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn budget_exceeded_exits_two() {
    let raw = gen_switch_demo();
    let rw = tmp("exceeded.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        // Default budget: 25% below a dir floor; one degraded function
        // out of two blows it.
        .args(["--mode", "jt", "--fault-seed", "1", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BUDGET EXCEEDED"));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn verify_honours_the_same_contract() {
    let raw = gen_switch_demo();
    let clean = icfgp()
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("verify runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    let degraded = icfgp()
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0"])
        .output()
        .expect("verify runs");
    assert_eq!(
        degraded.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn internal_error_exits_three() {
    let out = icfgp()
        .args(["verify", "/nonexistent/icfgp-exit-code-test.json"])
        .output()
        .expect("verify runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn usage_error_exits_sixty_four() {
    let out = icfgp().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let noargs = icfgp().output().expect("runs");
    assert_eq!(noargs.status.code(), Some(64));
}

#[test]
fn fleet_with_no_files_is_a_usage_error() {
    let dir = tmp("fleet-empty-store");
    let out = icfgp()
        .args(["fleet", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    assert_eq!(out.status.code(), Some(64), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fleet"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_rewrites_batch_and_reports_sharing() {
    let mut variants = Vec::new();
    for v in 0..2u64 {
        let raw = tmp(&format!("fleet{v}.json"));
        let out = icfgp()
            .args(["gen", "--workload", "small", "--arch", "x86-64", "--seed", "11"])
            .args(["--perturb", &v.to_string(), "-o"])
            .arg(&raw)
            .output()
            .expect("gen runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        variants.push(raw);
    }
    let dir = tmp("fleet-store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = icfgp();
    cmd.arg("fleet");
    for v in &variants {
        cmd.arg(v);
    }
    let out = cmd
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("fleet: 2 binaries"), "{stdout}");
    assert!(stdout.contains("shared:"), "{stdout}");
    for v in &variants {
        let rw = PathBuf::from(format!("{}.rw", v.display()));
        assert!(rw.exists(), "fleet must write {}", rw.display());
        let _ = std::fs::remove_file(&rw);
        let _ = std::fs::remove_file(v);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_smoke_reports_no_failures() {
    let out = icfgp()
        .args([
            "chaos",
            "--seeds",
            "2",
            "--workloads",
            "switch_demo",
            "--arch",
            "x86-64",
            "--mode",
            "jt",
        ])
        .output()
        .expect("chaos runs");
    // 0 or 1 acceptable (clean / degraded-or-budget); 2 means a ladder
    // failure or emulation divergence — a real robustness bug.
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 failed"), "{text}");
}

#[test]
fn invalid_icfgp_threads_is_a_usage_error() {
    for bad in ["0", "banana", "-3", "1.5"] {
        let out = icfgp()
            .env("ICFGP_THREADS", bad)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "ICFGP_THREADS={bad} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("ICFGP_THREADS"),
            "error must name the variable"
        );
    }
    // Valid and empty values still work (empty = no override).
    for ok in ["1", "16", "999", ""] {
        let out = icfgp()
            .env("ICFGP_THREADS", ok)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "ICFGP_THREADS={ok:?} must be accepted");
    }
}

#[test]
fn invalid_millisecond_env_vars_are_usage_errors() {
    // ICFGP_STORE_LOCK_MS and ICFGP_FUNC_TIMEOUT_MS follow the same
    // contract as ICFGP_THREADS: explicit garbage refuses to start
    // with exit 64 and an error naming the variable; valid values and
    // empty (= unset) are accepted.
    for var in ["ICFGP_STORE_LOCK_MS", "ICFGP_FUNC_TIMEOUT_MS"] {
        for bad in ["banana", "-5", "1.5", "10ms"] {
            let out = icfgp()
                .env(var, bad)
                .arg("list-workloads")
                .output()
                .expect("runs");
            assert_eq!(
                out.status.code(),
                Some(64),
                "{var}={bad} must be rejected: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(var),
                "error must name {var}"
            );
        }
        for ok in ["0", "50", "2000", "", "  "] {
            let out = icfgp()
                .env(var, ok)
                .arg("list-workloads")
                .output()
                .expect("runs");
            assert_eq!(out.status.code(), Some(0), "{var}={ok:?} must be accepted");
        }
    }
}

#[test]
fn garbage_store_urls_are_usage_errors() {
    // There is no remote store: `--store-url` is an unknown flag, so
    // every value after it, malformed or well-formed, refuses to start
    // with exit 64 and a usage hint rather than running storeless.
    let urls = [
        "http://host:9000",           // wrong scheme
        "icfgp://",                   // missing host and port
        "icfgp://host",               // missing port
        "icfgp://host:",              // empty port
        "icfgp://host:0",             // port out of range
        "icfgp://host:70000",         // port out of range
        "icfgp://host:banana",        // unparsable port
        "icfgp://ho st:9000",         // unparsable host
        "icfgp://:9000",              // empty host
        "host:9000",                  // no scheme at all
        "icfgp://127.0.0.1:9000",     // well-formed
        "icfgp://[::1]:81",           // well-formed
    ];
    for url in urls {
        let out = icfgp()
            .args(["rewrite", "x.json", "--store-url", url, "-o", "y.json"])
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "--store-url {url} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("usage"), "error must include a usage hint: {err}");
    }
}

#[test]
fn unknown_flags_and_removed_surfaces_are_usage_errors() {
    // A misspelt flag must not run the command with the flag ignored:
    // `--cache-dri` used to rewrite storeless and exit 1.
    let raw = gen_switch_demo();
    let store = tmp("typo-store");
    let rw = tmp("typo.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "func-ptr", "--cache-dri"])
        .arg(&store)
        .arg("-o")
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(64), "{err}");
    assert!(err.contains("--cache-dri") && err.contains("USAGE"), "{err}");
    assert!(!store.exists() && !rw.exists(), "a usage error must do no work");
    // The remote store tier is gone: its flag, the network chaos
    // domain and the server subcommand are all unknown now, and so is
    // any other cache subcommand. So is the run journal: the store is
    // the only crash-recovery path.
    let cases: [&[&str]; 6] = [
        &["rewrite", "x.json", "--store-url", "icfgp://127.0.0.1:9", "-o", "y.json"],
        &["chaos", "--net"],
        &["cache", "serve", "127.0.0.1:0", "--cache-dir", "d"],
        &["cache", "bogus", "--cache-dir", "d"],
        &["rewrite", "x.json", "--journal", "x.journal", "-o", "y.json"],
        &["rewrite", "x.json", "--resume", "-o", "y.json"],
    ];
    for args in cases {
        let out = icfgp().args(args).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn overlapping_function_symbols_are_rejected_at_load() {
    // Widen one firefox function into its neighbour: every subcommand
    // that loads the binary must refuse it (exit 3), not analyse or
    // run it as if it were well formed.
    let raw = tmp("ff.json");
    let out = icfgp()
        .args(["gen", "--workload", "firefox", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let mut binary: incremental_cfg_patching::obj::Binary =
        serde_json::from_slice(&std::fs::read(&raw).unwrap()).unwrap();
    let funcs: Vec<(u64, u64)> =
        binary.functions().filter(|f| f.size > 0).map(|f| (f.addr, f.size)).collect();
    let (victim, next) = funcs
        .windows(2)
        .map(|w| (w[0], w[1]))
        .find(|(a, b)| a.0 + a.1 <= b.0)
        .expect("two adjacent functions");
    for s in binary.symbols_mut().iter_mut().filter(|s| (s.addr, s.size) == victim) {
        s.size = next.0 + 4 - s.addr;
    }
    let bad = tmp("ff-overlap.json");
    std::fs::write(&bad, serde_json::to_vec(&binary).unwrap()).unwrap();
    let rw = tmp("ff-overlap.rw.json");
    let commands: [Vec<std::ffi::OsString>; 3] = [
        vec!["analyze".into(), bad.clone().into()],
        vec!["rewrite".into(), bad.clone().into(), "--mode".into(), "jt".into(), "-o".into(),
            rw.clone().into()],
        vec!["run".into(), bad.clone().into()],
    ];
    for args in commands {
        let out = icfgp().args(&args).output().expect("runs");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(3), "{args:?}: {err}");
        assert!(err.contains("overlap"), "{args:?}: {err}");
    }
    assert!(!rw.exists(), "a rejected input must produce no output");
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn warm_rerun_under_fault_seed_is_byte_identical() {
    // Recovery after a crash or kill is a plain re-run over the same
    // store. A fault-seeded run ladders through several rounds and
    // degrades within budget (exit 1); re-running it over the store it
    // filled must give the same bytes and the same exit code, served
    // from the store, and both must match a storeless run.
    let raw = gen_switch_demo();
    let dir = tmp("rerun-store");
    let _ = std::fs::remove_dir_all(&dir);
    let faulted = ["--mode", "jt", "--fault-seed", "1", "--budget", "1.0"];
    let rewrite = |store: Option<&PathBuf>, out: &PathBuf| {
        let mut cmd = icfgp();
        cmd.arg("rewrite").arg(&raw).args(faulted).arg("--stats");
        if let Some(dir) = store {
            cmd.arg("--cache-dir").arg(dir);
        }
        cmd.arg("-o").arg(out).output().expect("rewrite runs")
    };
    let (cold, first, rerun) = (tmp("cold.json"), tmp("first.json"), tmp("rerun.json"));
    for (out, store) in [(&cold, None), (&first, Some(&dir)), (&rerun, Some(&dir))] {
        let run = rewrite(store, out);
        assert_eq!(run.status.code(), Some(1), "{}", String::from_utf8_lossy(&run.stderr));
        if out == &rerun {
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(stdout.contains("cache store:") && !stdout.contains(" 0 hit "), "{stdout}");
        }
    }
    let bytes = std::fs::read(&cold).unwrap();
    assert_eq!(bytes, std::fs::read(&first).unwrap(), "the store must not change output bytes");
    assert_eq!(bytes, std::fs::read(&rerun).unwrap(), "a re-run must not change output bytes");
    for f in [&raw, &cold, &first, &rerun] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    // Every value-taking flag has one parser: a malformed value exits
    // 64 with the accepted values, before any work, instead of falling
    // back to a default or surfacing as an internal error.
    let raw = gen_switch_demo();
    let out = tmp("never.json");
    let f = raw.to_str().unwrap();
    let o = out.to_str().unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["rewrite", f, "--mode", "bogus", "-o", o], "dir|jt|func-ptr"),
        (vec!["rewrite", f, "--unwind", "bogus", "-o", o], "ra|emulate|none"),
        (vec!["rewrite", f, "--points", "bogus", "-o", o], "blocks|entries|none"),
        (vec!["rewrite", f, "--budget", "x", "-o", o], "fraction"),
        (vec!["rewrite", f, "--fault-seed", "x", "-o", o], "unsigned integer"),
        (vec!["rewrite", f, "--intensity", "x", "-o", o], "standard"),
        (vec!["rewrite", f, "--floor", "x", "-o", o], "trap-only"),
        (vec!["rewrite", f, "--func-timeout-ms", "x", "-o", o], "unsigned integer"),
        (vec!["verify", f, "--mode", "bogus"], "dir|jt|func-ptr"),
        (vec!["fleet", f, "--points", "bogus"], "blocks|entries|none"),
        (vec!["audit", f, "--mode", "bogus"], "dir|jt|func-ptr"),
        (vec!["gen", "--workload", "small", "--arch", "bogus", "-o", o], "x64"),
        (vec!["gen", "--workload", "small", "--seed", "x", "-o", o], "unsigned integer"),
        (vec!["gen", "--workload", "nope", "-o", o], "switch_demo"),
        (vec!["run", f, "--fuel", "x"], "unsigned integer"),
        (vec!["run", f, "--bias", "zz"], "hex"),
        (vec!["chaos", "--seeds", "x"], "unsigned integer"),
        (vec!["chaos", "--mode", "bogus"], "dir|jt|func-ptr"),
        (vec!["chaos", "--workloads", "small,nope"], "switch_demo"),
        (vec!["chaos", "--arch", "bogus", "--kill-resume"], "x86-64"),
        (vec!["cache", "corrupt", "--cache-dir", o, "--kind", "bogus"], "bit-flip"),
    ];
    for (args, accepted) in cases {
        let run = icfgp().args(&args).output().expect("runs");
        let err = String::from_utf8_lossy(&run.stderr).to_string();
        assert_eq!(run.status.code(), Some(64), "{args:?}: {err}");
        assert!(err.contains(accepted), "{args:?} must list the accepted values: {err}");
        assert!(!out.exists(), "{args:?}: a usage error must do no work");
    }
    // Every spelling in use stays accepted: `x64` is `x86-64`.
    let (a, b) = (tmp("x64.json"), tmp("x86-64.json"));
    for (arch, path) in [("x64", &a), ("x86-64", &b)] {
        let run = icfgp()
            .args(["gen", "--workload", "small", "--arch", arch, "-o"])
            .arg(path)
            .output()
            .expect("gen runs");
        assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    }
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    for f in [&raw, &a, &b] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn gen_firefox_scale_is_checked_by_the_workload_parser() {
    // `firefox:N` emits the scale-N firefox-like binary for N in
    // 1..=256; any other N is a malformed `--workload` value (exit 64,
    // no output), and plain `firefox` stays scale 1.
    let out = tmp("never.json");
    for bad in ["firefox:0", "firefox:x", "firefox:257", "firefox:", "firefox:-1"] {
        let run = icfgp()
            .args(["gen", "--workload", bad, "-o"])
            .arg(&out)
            .output()
            .expect("gen runs");
        let err = String::from_utf8_lossy(&run.stderr).to_string();
        assert_eq!(run.status.code(), Some(64), "{bad}: {err}");
        assert!(err.contains("firefox:N (N in 1..=256)"), "{bad} must list the accepted values: {err}");
        assert!(!out.exists(), "{bad}: a usage error must do no work");
    }
    let gen = |workload: &str| {
        let path = tmp("ff.json");
        let run = icfgp()
            .args(["gen", "--workload", workload, "-o"])
            .arg(&path)
            .output()
            .expect("gen runs");
        assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
        let bytes = std::fs::read(&path).expect("output");
        let _ = std::fs::remove_file(&path);
        (bytes, String::from_utf8_lossy(&run.stdout).to_string())
    };
    let (plain, _) = gen("firefox");
    let (one, one_log) = gen("firefox:1");
    let (_, two_log) = gen("firefox:2");
    assert_eq!(plain, one, "plain `firefox` is scale 1");
    // "firefox-libxul: 220 functions, ..."
    let funcs = |log: &str| -> usize {
        log.split(": ").nth(1).and_then(|r| r.split(' ').next()).and_then(|n| n.parse().ok()).expect(log)
    };
    assert!(funcs(&two_log) > funcs(&one_log), "scale 2 is larger: {two_log} vs {one_log}");
}

#[test]
fn out_of_bounds_function_symbols_are_rejected_at_load() {
    // A function size that wraps the address space used to panic in
    // the section reader (exit 101); symbols out of address order were
    // misreported as overlapping. Both are malformed input: exit 3.
    let raw = gen_switch_demo();
    let binary: incremental_cfg_patching::obj::Binary =
        serde_json::from_slice(&std::fs::read(&raw).unwrap()).unwrap();
    let mut wrap = binary.clone();
    let victim = wrap
        .symbols_mut()
        .iter_mut()
        .find(|s| s.kind == incremental_cfg_patching::obj::SymbolKind::Func && s.size > 0)
        .unwrap();
    victim.size = u64::MAX;
    let mut unsorted = binary;
    let n = unsorted.symbols().len();
    unsorted.symbols_mut().swap(0, n - 1);
    for (bad, why) in [(wrap, "executable section"), (unsorted, "out of address order")] {
        let path = tmp("bad.json");
        std::fs::write(&path, serde_json::to_vec(&bad).unwrap()).unwrap();
        let rw = tmp("bad.rw.json");
        let out = icfgp()
            .arg("rewrite")
            .arg(&path)
            .args(["--mode", "jt", "-o"])
            .arg(&rw)
            .output()
            .expect("rewrite runs");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(3), "{err}");
        assert!(err.contains(why), "{err}");
        assert!(!rw.exists(), "a rejected input must produce no output");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn func_timeout_budget_degrades_not_hangs() {
    // A watchdog budget small enough to trip on injected stalls still
    // produces a verified rewrite: the stalled function degrades with
    // a typed Budget failure instead of hanging the run.
    let raw = gen_switch_demo();
    let rw = tmp("watchdog-rw.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--func-timeout-ms", "60000", "--budget", "1.0", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    // A generous wall-clock budget never trips on a clean workload.
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn audit_contract_clean_findings_usage() {
    let raw = gen_switch_demo();

    // Clean workload: every function proven, exit 0.
    let clean = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("audit runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    let text = String::from_utf8_lossy(&clean.stdout);
    assert!(text.contains("proven"), "{text}");

    // The same fault seed that degrades the rewrite produces findings:
    // exit 1 and at least one ICFGP-A lint on stdout.
    let findings = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1"])
        .output()
        .expect("audit runs");
    assert_eq!(findings.status.code(), Some(1), "{}", String::from_utf8_lossy(&findings.stderr));
    assert!(String::from_utf8_lossy(&findings.stdout).contains("ICFGP-A"));

    // Usage errors: missing FILE and unknown --format are both 64.
    let nofile = icfgp().arg("audit").output().expect("runs");
    assert_eq!(nofile.status.code(), Some(64));
    let badfmt = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--format", "yaml"])
        .output()
        .expect("runs");
    assert_eq!(badfmt.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&badfmt.stderr).contains("--format"));

    // A missing file is an internal error (3), not a usage error.
    let gone = icfgp()
        .args(["audit", "/nonexistent/icfgp-audit-test.json"])
        .output()
        .expect("runs");
    assert_eq!(gone.status.code(), Some(3));

    let _ = std::fs::remove_file(&raw);
}

#[test]
fn audit_gate_converges_faster_and_is_reported() {
    let raw = gen_switch_demo();
    let rw = tmp("gated.json");
    // Same seed as `degraded_within_budget_exits_one`: degraded but
    // within a 1.0 budget, so the gated run still exits 1 — and the
    // disposition summary now carries the gate line.
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "--audit-gate", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit gate"), "{text}");
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn cache_compact_shrinks_a_cleared_quarantine() {
    let raw = gen_switch_demo();
    let rw = tmp("compact-rw.json");
    let dir = tmp("compact-store");
    let _ = std::fs::remove_dir_all(&dir);

    // Two rewrites append two generations of segments; corrupt in
    // between so compaction has quarantine leftovers to sweep.
    for _ in 0..2 {
        let out = icfgp()
            .args(["rewrite"])
            .arg(&raw)
            .args(["--mode", "jt", "--cache-dir"])
            .arg(&dir)
            .arg("-o")
            .arg(&rw)
            .output()
            .expect("rewrite runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = icfgp()
        .args(["cache", "compact", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache compact runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kept"), "{text}");

    // The compacted store still verifies clean and still serves hits.
    let verify = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(verify.status.code(), Some(0), "{}", String::from_utf8_lossy(&verify.stdout));
    let rw2 = tmp("compact-rw2.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "compaction must not change rewrite output"
    );

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_preserves_exit_codes_with_empty_stdout() {
    let raw = gen_switch_demo();
    let rw = tmp("quiet-rw.json");

    // Clean: exit 0, nothing on stdout.
    let clean = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    assert!(clean.stdout.is_empty(), "{}", String::from_utf8_lossy(&clean.stdout));

    // Degraded within budget: still exit 1 under the short flag, and
    // --stats output is suppressed too.
    let degraded = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "--stats", "-q", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(degraded.status.code(), Some(1), "{}", String::from_utf8_lossy(&degraded.stderr));
    assert!(degraded.stdout.is_empty(), "{}", String::from_utf8_lossy(&degraded.stdout));

    // Budget exceeded: exit 2, still silent.
    let exceeded = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(exceeded.status.code(), Some(2), "{}", String::from_utf8_lossy(&exceeded.stderr));
    assert!(exceeded.stdout.is_empty());

    // Internal errors keep stderr even when quiet.
    let gone = icfgp()
        .args(["rewrite", "/nonexistent/icfgp-quiet.json", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(gone.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&gone.stderr).contains("error"));

    // Quiet fleet: exit 0 with empty stdout.
    let dir = tmp("quiet-fleet-store");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = icfgp()
        .arg("fleet")
        .arg(&raw)
        .args(["--mode", "jt", "--quiet", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    assert_eq!(fleet.status.code(), Some(0), "{}", String::from_utf8_lossy(&fleet.stderr));
    assert!(fleet.stdout.is_empty(), "{}", String::from_utf8_lossy(&fleet.stdout));
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.rw", raw.display())));
    let _ = std::fs::remove_dir_all(&dir);

    // Quiet chaos: the exit code still reports the campaign verdict.
    let chaos = icfgp()
        .args([
            "chaos", "--seeds", "1", "--workloads", "switch_demo", "--arch", "x86-64",
            "--mode", "jt", "--quiet",
        ])
        .output()
        .expect("chaos runs");
    assert!(
        matches!(chaos.status.code(), Some(0 | 1)),
        "exit {:?}: {}",
        chaos.status.code(),
        String::from_utf8_lossy(&chaos.stderr)
    );
    assert!(chaos.stdout.is_empty(), "{}", String::from_utf8_lossy(&chaos.stdout));

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn trace_flag_records_and_summarize_validates() {
    let raw = gen_switch_demo();
    let rw = tmp("trace-rw.json");
    let rw2 = tmp("trace-rw2.json");
    let stream = tmp("trace.jsonl");

    // --trace writes schema-valid JSONL and changes neither the exit
    // code nor the output bytes.
    let plain = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(plain.status.code(), Some(0), "{}", String::from_utf8_lossy(&plain.stderr));
    let traced = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--trace"])
        .arg(&stream)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(traced.status.code(), Some(0), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "tracing must not change output bytes"
    );
    let text = std::fs::read_to_string(&stream).expect("trace written");
    assert!(!text.is_empty());
    for line in text.lines() {
        serde_json::from_str::<serde::Value>(line).expect("every line is JSON");
    }

    // summarize: exit 0 on a consistent stream, report on stdout.
    let sum = icfgp()
        .args(["trace", "summarize"])
        .arg(&stream)
        .output()
        .expect("summarize runs");
    assert_eq!(sum.status.code(), Some(0), "{}", String::from_utf8_lossy(&sum.stderr));
    let out = String::from_utf8_lossy(&sum.stdout);
    assert!(out.contains("conservation: ok"), "{out}");
    assert!(out.contains("spans:"), "{out}");

    // diff of a stream against itself: all deltas zero, exit 0.
    let diff = icfgp()
        .args(["trace", "diff"])
        .arg(&stream)
        .arg(&stream)
        .output()
        .expect("diff runs");
    assert_eq!(diff.status.code(), Some(0), "{}", String::from_utf8_lossy(&diff.stderr));

    // Unreadable file and unknown subcommand are internal errors (3).
    let gone = icfgp()
        .args(["trace", "summarize", "/nonexistent/icfgp-trace.jsonl"])
        .output()
        .expect("summarize runs");
    assert_eq!(gone.status.code(), Some(3));
    let unknown = icfgp().args(["trace", "frobnicate"]).output().expect("runs");
    assert_eq!(unknown.status.code(), Some(3));

    // A schema-invalid stream is rejected with the offending line.
    let bad = tmp("trace-bad.jsonl");
    std::fs::write(&bad, "{\"not-an-event\":1}\n").unwrap();
    let rejected = icfgp()
        .args(["trace", "summarize"])
        .arg(&bad)
        .output()
        .expect("summarize runs");
    assert_eq!(rejected.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains(":1"), "names the line");

    // ICFGP_TRACE is the environment spelling of --trace.
    let via_env = tmp("trace-env.jsonl");
    let out = icfgp()
        .env("ICFGP_TRACE", &via_env)
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("verify runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(via_env.exists(), "ICFGP_TRACE must write the stream");

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_file(&stream);
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&via_env);
}

#[test]
fn cache_verify_contract_clean_then_damaged() {
    let raw = gen_switch_demo();
    let rw = tmp("cache-rw.json");
    let dir = tmp("cache-store");
    let _ = std::fs::remove_dir_all(&dir);

    // Populate the store with a rewrite, then verify: clean, exit 0.
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let clean = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stdout));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("store is clean"));

    // Damage it: verify reports the corruption with exit 1 ...
    let corrupt = icfgp()
        .args(["cache", "corrupt", "--cache-dir"])
        .arg(&dir)
        .args(["--kind", "bit-flip", "--seed", "7"])
        .output()
        .expect("cache corrupt runs");
    assert_eq!(corrupt.status.code(), Some(0), "{}", String::from_utf8_lossy(&corrupt.stderr));
    let damaged = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(damaged.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&damaged.stdout).contains("damaged"));

    // ... but a rewrite through the damaged store still exits 0 and
    // produces the same bytes (quarantine + recompute, not failure).
    let rw2 = tmp("cache-rw2.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "corrupt store must not change output bytes"
    );

    // `cache clear` empties the directory; a fresh verify is clean.
    let clear = icfgp()
        .args(["cache", "clear", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache clear runs");
    assert_eq!(clear.status.code(), Some(0));
    let empty = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(empty.status.code(), Some(0), "{}", String::from_utf8_lossy(&empty.stdout));

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_dir_all(&dir);
}
