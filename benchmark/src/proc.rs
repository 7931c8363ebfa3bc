//! Running one child process the way a user would: optionally pinned to
//! one CPU with `taskset`, stdout and stderr captured to files, peak
//! resident memory sampled from `/proc`, killed if it outlives a deadline.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often the waiting loop checks whether the child exited. The end
/// of a pass is observed at most this late.
const POLL: Duration = Duration::from_millis(2);

/// Peak memory is read every this many polls (every 10 ms).
const RSS_EVERY: u32 = 5;

/// Whether children of a workload run pinned, and why not if they don't.
#[derive(Clone, Debug)]
pub struct Pin {
    /// CPUs the workload's children may use (1 means `taskset -c 0`).
    pub cpus: usize,
    /// Whether pinning is in effect.
    pub pinned: bool,
    /// Why a one-CPU workload runs unpinned.
    pub skip_reason: Option<String>,
}

impl Pin {
    /// Probes `taskset` for a one-CPU workload; other workloads are
    /// unpinned by design.
    pub fn probe(cpus: usize) -> Pin {
        if cpus != 1 {
            return Pin { cpus, pinned: false, skip_reason: None };
        }
        let probe = Command::new("taskset")
            .args(["-c", "0", "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        match probe {
            Ok(s) if s.success() => Pin { cpus, pinned: true, skip_reason: None },
            Ok(s) => Pin { cpus, pinned: false, skip_reason: Some(format!("taskset -c 0: {s}")) },
            Err(e) => Pin { cpus, pinned: false, skip_reason: Some(format!("taskset: {e}")) },
        }
    }

    /// A command for `program`, wrapped in `taskset -c 0` when pinned
    /// (taskset execs the program, so the pid is the program's).
    pub fn command(&self, program: &Path) -> Command {
        if self.pinned {
            let mut c = Command::new("taskset");
            c.args(["-c", "0"]).arg(program);
            c
        } else {
            Command::new(program)
        }
    }
}

/// What one child run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Exited with status 0 before the deadline.
    pub ok: bool,
    /// Exit status or failure description.
    pub status: String,
    /// Host seconds from spawn to observed exit.
    pub wall_s: f64,
    /// Highest `VmHWM` seen, KiB (0 if the child ended before a sample).
    pub peak_rss_kb: u64,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error (for failure notes).
    pub stderr: String,
}

impl Outcome {
    /// Standard output as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// A one-line failure description: status plus the last stderr line.
    pub fn why(&self) -> String {
        let last = self.stderr.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
        format!("{} {}", self.status, last.trim())
    }
}

/// `VmHWM` (peak resident set) of a live process, KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `cmd` to completion (or until `deadline`), capturing its output
/// through files under `scratch` (no pipe can fill and stall it).
pub fn run(mut cmd: Command, scratch: &Path, deadline: Instant) -> Outcome {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let files =
        std::fs::File::create(&out_path).and_then(|o| Ok((o, std::fs::File::create(&err_path)?)));
    let (out, err) = match files {
        Ok(f) => f,
        Err(e) => return failed_to_start(format!("creating capture files: {e}")),
    };
    cmd.stdin(Stdio::null()).stdout(out).stderr(err);
    let started = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed_to_start(format!("spawn: {e}")),
    };
    let (status, peak) = wait(&mut child, deadline);
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = std::fs::read(&out_path).unwrap_or_default();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let (ok, status) = match status {
        Ok(s) => (s.success(), s.to_string()),
        Err(why) => (false, why),
    };
    Outcome { ok, status, wall_s, peak_rss_kb: peak, stdout, stderr }
}

/// Waits for `child`, sampling its peak RSS; kills it at `deadline`.
fn wait(child: &mut Child, deadline: Instant) -> (Result<std::process::ExitStatus, String>, u64) {
    let pid = child.id();
    let mut peak = 0;
    let mut polls = 0u32;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return (Ok(status), peak),
            Ok(None) => {}
            Err(e) => {
                stop(child);
                return (Err(format!("wait: {e}")), peak);
            }
        }
        if polls.is_multiple_of(RSS_EVERY) {
            peak = peak.max(peak_rss_kb(pid).unwrap_or(0));
        }
        polls += 1;
        if Instant::now() >= deadline {
            stop(child);
            return (Err("killed at the run deadline".to_string()), peak);
        }
        std::thread::sleep(POLL);
    }
}

/// Kills and reaps a child, ignoring errors (it may already be gone).
pub fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn failed_to_start(status: String) -> Outcome {
    Outcome {
        ok: false,
        status,
        wall_s: 0.0,
        peak_rss_kb: 0,
        stdout: Vec::new(),
        stderr: String::new(),
    }
}

/// 64-bit FNV-1a of `bytes`, printed as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "85944171f73967e8");
    }
}
