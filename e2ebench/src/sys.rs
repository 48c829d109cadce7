//! Process plumbing: building the shipped binaries, running a child to exit
//! with its own resource usage, and reading peak RSS — std only, with the
//! two libc calls it needs declared by hand.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Paths of the shipped binaries the benchmark drives.
#[derive(Clone, Debug)]
pub struct Bins {
    /// The `aadlsched` CLI.
    pub aadlsched: PathBuf,
    /// The `aadlschedd` daemon.
    pub aadlschedd: PathBuf,
}

/// Build `aadlsched` and `aadlschedd` from the sources under `root` (release
/// profile, offline, cargo's output on stderr) and return their paths as
/// cargo reports them, wherever `CARGO_TARGET_DIR` points.
pub fn build_bins(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .args(["-p", "aadl-sched", "-p", "served", "--bins"])
        .args(["--message-format", "json-render-diagnostics"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building the binaries failed ({})", out.status));
    }
    let find = |name: &str| -> Result<PathBuf, String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| obs::Json::parse(l).ok())
            .filter(|m| m.get("reason").and_then(|r| r.as_str()) == Some("compiler-artifact"))
            .filter(|m| {
                m.get("target")
                    .and_then(|t| t.get("name"))
                    .and_then(|n| n.as_str())
                    == Some(name)
            })
            .find_map(|m| {
                m.get("executable")
                    .and_then(|e| e.as_str())
                    .map(PathBuf::from)
            })
            .ok_or_else(|| format!("cargo reported no executable for `{name}`"))
    };
    Ok(Bins {
        aadlsched: find("aadlsched")?,
        aadlschedd: find("aadlschedd")?,
    })
}

/// The end of one child process.
pub struct Exit {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Wall time from spawn to reaped.
    pub wall: Duration,
    /// The child's peak resident set, in KiB (`ru_maxrss`).
    pub maxrss_kib: u64,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Run `program args…` to completion, stdout captured, stderr discarded,
/// reaping it with `wait4` so its own `ru_maxrss` comes back with it.
pub fn run_child(program: &Path, args: &[&str]) -> Result<Exit, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `wait4` writes only through the two valid pointers; the pid is
    // our own unreaped child (std's `Child` never waits on it after this).
    let pid = loop {
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    let wall = start.elapsed();
    if pid < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    read.map_err(|e| format!("reading child stdout: {e}"))?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        wall,
        maxrss_kib: usage.maxrss.max(0) as u64,
        stdout,
    })
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}
