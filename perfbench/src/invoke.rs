//! Untraced end-to-end runs: the `icfgp` CLI as a subprocess, set-up,
//! the closed measurement loop and the per-invocation oracle.

use crate::inputs::{input_files, Workload};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::os::raw::{c_int, c_long, c_uint};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// An invocation that runs longer than this is killed and counted as
/// failed, so a hung `icfgp` cannot hang the benchmark.
const INVOCATION_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux `struct rusage` (LP64): two `timeval`s, then fourteen longs
/// starting with `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    // libc, which std already links. `wait4` reaps one child and
    // returns that child's own resource usage, the per-child form of
    // `getrusage(RUSAGE_CHILDREN)`.
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn waitid(idtype: c_int, id: c_uint, info: *mut SigInfo, options: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// Linux `siginfo_t`: 128 bytes, only written by `waitid` here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;

/// Retry a libc call while it fails with `EINTR`.
fn retry_eintr(mut call: impl FnMut() -> c_int) -> Result<c_int, std::io::Error> {
    loop {
        let r = call();
        if r != -1 {
            return Ok(r);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One finished subprocess.
pub struct Finished {
    pub status: ExitStatus,
    pub wall_ms: f64,
    pub peak_rss_kib: u64,
}

/// Run `program args` with its output discarded; wait for it and time
/// it from spawn to reap.
pub fn run_timed(program: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        // The store is chosen by the arguments alone.
        .env_remove("ICFGP_CACHE_DIR")
        .env_remove("ICFGP_STORE_URL")
        .env_remove("ICFGP_TRACE")
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let id: c_uint = child.id();
    let pid = c_int::try_from(id).expect("Linux pids fit in pid_t");
    // Wait for the exit without reaping, so the pid cannot be reused
    // while the watchdog may still signal it; then reap with `wait4`.
    let (done, exited) = mpsc::channel::<()>();
    let exit_wait = std::thread::scope(|s| {
        s.spawn(move || {
            if exited.recv_timeout(INVOCATION_TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: `kill` takes plain integers. The child is not
                // reaped until this thread has been joined, so `pid`
                // still names it (running or a zombie).
                unsafe { kill(pid, SIGKILL) };
            }
        });
        let mut info = SigInfo([0; 128]);
        // SAFETY: `info` is a live, writable, suitably aligned buffer of
        // the size of `siginfo_t`; `id` is our unreaped child.
        let r = retry_eintr(|| unsafe { waitid(P_PID, id, &mut info, WEXITED | WNOWAIT) });
        let _ = done.send(());
        r
    });
    if let Err(e) = exit_wait {
        // Leave no child behind: kill it and let std reap it.
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("waitid: {e}"));
    }
    let mut status: c_int = 0;
    let mut rusage = Rusage::default();
    // SAFETY: both pointers refer to live, writable locals of the C
    // layouts `wait4` fills; `pid` is our exited, unreaped child.
    retry_eintr(|| unsafe { wait4(pid, &mut status, 0, &mut rusage) })
        .map_err(|e| format!("wait4: {e}"))?;
    // The child was reaped by `wait4`; dropping the handle neither waits
    // nor kills.
    drop(child);
    Ok(Finished {
        status: ExitStatus::from_raw(status),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_rss_kib: u64::try_from(rusage.ru_maxrss).unwrap_or(0),
    })
}

pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Total size of the regular files under `dir` (0 when absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// A prepared workload: inputs on disk, the store in its starting
/// state, and the reference result every invocation must reproduce.
pub struct Prepared {
    pub workload: Workload,
    pub icfgp: PathBuf,
    pub dir: PathBuf,
    pub inputs: Vec<PathBuf>,
    pub outputs: Vec<PathBuf>,
    pub store: Option<PathBuf>,
    /// Exit code of the no-store reference invocation.
    pub ref_exit: Option<i32>,
    /// Hashes of the reference outputs, one per input.
    pub ref_hashes: Vec<u64>,
    /// The reference outputs themselves, for the emulator check.
    pub ref_outputs: Vec<Vec<u8>>,
    /// The serialized inputs.
    pub input_bytes: Vec<Vec<u8>>,
}

impl Prepared {
    /// Arguments of one measured invocation.
    fn args(&self, with_store: bool) -> Vec<String> {
        let mut a: Vec<String> = match self.workload {
            Workload::ColdLarge | Workload::WarmDisk => vec![
                "rewrite".into(),
                path_arg(&self.inputs[0]),
                "--mode".into(),
                "func-ptr".into(),
                "-o".into(),
                path_arg(&self.outputs[0]),
            ],
            Workload::FleetStore => {
                let mut a = vec!["fleet".to_string()];
                a.extend(self.inputs.iter().map(|p| path_arg(p)));
                a.extend(["--mode".to_string(), "func-ptr".to_string()]);
                a
            }
        };
        if with_store {
            if let Some(store) = &self.store {
                a.extend(["--cache-dir".to_string(), path_arg(store)]);
            }
        }
        a
    }

    /// Put the files into the state a measured invocation starts from,
    /// outside any timing: no outputs, and for `fleet_store` an empty
    /// store (`warm_disk` keeps the filled one it never writes to).
    pub fn before_invocation(&self) -> Result<(), String> {
        for out in &self.outputs {
            if out.exists() {
                std::fs::remove_file(out)
                    .map_err(|e| format!("removing {}: {e}", out.display()))?;
            }
        }
        match (&self.store, self.workload) {
            (Some(store), Workload::FleetStore) => reset_dir(store),
            _ => Ok(()),
        }
    }

    fn read_outputs(&self) -> Result<Vec<Vec<u8>>, String> {
        self.outputs
            .iter()
            .map(|p| std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display())))
            .collect()
    }

    /// Why one finished invocation fails the oracle, if it does: its
    /// exit code or output bytes differ from the reference.
    fn check(&self, f: &Finished) -> Option<String> {
        if f.status.code() != self.ref_exit {
            return Some(format!(
                "exit {:?}, expected {:?}",
                f.status.code(),
                self.ref_exit
            ));
        }
        let outs = match self.read_outputs() {
            Ok(o) => o,
            Err(e) => return Some(e),
        };
        for (i, (out, want)) in outs.iter().zip(&self.ref_hashes).enumerate() {
            if hash_bytes(out) != *want {
                return Some(format!("output {i} differs from the reference"));
            }
        }
        None
    }
}

/// Generate the inputs under `dir`, take the reference result, fill the
/// store and run the warm-up invocation. This is what `setup_s` times.
pub fn prepare(
    workload: Workload,
    icfgp: &Path,
    dir: &Path,
    seed: u64,
    scale: usize,
) -> Result<Prepared, String> {
    reset_dir(dir)?;
    let input_bytes = input_files(workload, seed, scale);
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for (i, bytes) in input_bytes.iter().enumerate() {
        let input = dir.join(format!("v{i}.icfgp"));
        std::fs::write(&input, bytes).map_err(|e| format!("writing {}: {e}", input.display()))?;
        // `fleet` writes FILE.rw next to each input; `rewrite` gets -o.
        outputs.push(dir.join(format!("v{i}.icfgp.rw")));
        inputs.push(input);
    }
    let mut p = Prepared {
        workload,
        icfgp: icfgp.to_path_buf(),
        dir: dir.to_path_buf(),
        inputs,
        outputs,
        store: workload.uses_store().then(|| dir.join("store")),
        ref_exit: None,
        ref_hashes: Vec::new(),
        ref_outputs: Vec::new(),
        input_bytes,
    };
    // The reference: one invocation with no store.
    p.before_invocation()?;
    let reference = run_timed(icfgp, &p.args(false))?;
    p.ref_exit = reference.status.code();
    if p.ref_exit.is_none() {
        return Err(format!(
            "reference invocation ended by {}",
            reference.status
        ));
    }
    p.ref_outputs = p.read_outputs()?;
    p.ref_hashes = p.ref_outputs.iter().map(|o| hash_bytes(o)).collect();
    if let Some(store) = &p.store {
        reset_dir(store)?;
        if workload == Workload::WarmDisk {
            // Fill the store; the warm-up below then reads it.
            let fill = run_timed(icfgp, &p.args(true))?;
            if let Some(why) = p.check(&fill) {
                return Err(format!("filling the store: {why}"));
            }
        }
    }
    // Warm-up (the no-store reference already warmed `cold_large`).
    if workload.uses_store() {
        p.before_invocation()?;
        let warm = run_timed(icfgp, &p.args(true))?;
        if let Some(why) = p.check(&warm) {
            return Err(format!("warm-up invocation: {why}"));
        }
    }
    Ok(p)
}

/// The closed-loop measurement of one workload.
#[derive(Default)]
pub struct Measured {
    pub wall_ms: Vec<f64>,
    pub peak_rss_kib: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// One client, closed loop: invoke, check, repeat until `budget` has
/// passed (and at least `min_runs` times). Store resets and output
/// checks run between invocations, outside the timed span.
pub fn measure(p: &Prepared, budget: Duration, min_runs: usize) -> Result<Measured, String> {
    let mut m = Measured::default();
    let start = Instant::now();
    while m.wall_ms.len() < min_runs || start.elapsed() < budget {
        p.before_invocation()?;
        let f = run_timed(&p.icfgp, &p.args(true))?;
        m.wall_ms.push(f.wall_ms);
        m.peak_rss_kib = m.peak_rss_kib.max(f.peak_rss_kib);
        if let Some(why) = p.check(&f) {
            m.failed += 1;
            m.failures
                .push(format!("invocation {}: {why}", m.wall_ms.len()));
        }
    }
    Ok(m)
}
