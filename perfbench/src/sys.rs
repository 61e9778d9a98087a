//! Process accounting, CPU pinning and the host stamp every result
//! carries.

use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::stats::{median, ratio, sorted};

/// Kernel clock ticks per second behind `/proc/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: u64 = 100;

/// `clockid_t` of the calling process's and thread's CPU clocks.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, for up to 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs this process could run on when first asked, ascending.
fn all_cpus() -> &'static [usize] {
    static ALL: OnceLock<Vec<usize>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is writable and as large as the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..64 * set.len())
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread, and the threads it spawns afterwards,
/// to `cpus`.
fn run_on(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is readable and as large as the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// The CPU the program under test is pinned to, once [`pin_program`] ran.
static PROGRAM_CPU: OnceLock<usize> = OnceLock::new();

/// Pins the calling thread, and so every thread of the program it goes
/// on to start, to the first CPU this process may use. For a run whose
/// pace is set by thread hand-offs rather than by CPU work: they then
/// stay on one CPU instead of waking a second one the host may have
/// descheduled, and the time stolen from that CPU is known exactly.
pub fn pin_program() -> usize {
    let cpu = all_cpus()[0];
    run_on(&[cpu]);
    let _ = PROGRAM_CPU.set(cpu);
    cpu
}

/// Runs `f` on every CPU this process may use, then pins the calling
/// thread back: for the parallel engine inside a pinned run.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    run_on(all_cpus());
    let out = f();
    if let Some(&cpu) = PROGRAM_CPU.get() {
        run_on(&[cpu]);
    }
    out
}

/// A CPU clock in ns: the scheduler's per-task runtime, not rounded to
/// a clock tick (and, under paravirtual steal accounting, without the
/// time the hypervisor stole).
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU of the whole process so far, including threads
/// that have already exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Time the hypervisor has stolen so far from the program's CPU, or per
/// CPU on average when the program is not pinned (the `steal` column of
/// `/proc/stat`), in ns; 0 where the kernel does not report it.
pub fn steal_ns() -> u64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = |line: &str| -> u64 {
        line.split_whitespace()
            .nth(8)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0)
    };
    let ticks = match PROGRAM_CPU.get() {
        Some(cpu) => {
            let name = format!("cpu{cpu}");
            text.lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                .map_or(0, steal)
        }
        None => {
            let cpus = text
                .lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
                .max(1) as u64;
            text.lines().next().map_or(0, steal) / cpus
        }
    };
    ticks * (1_000_000_000 / USER_HZ)
}

/// A run's wall time less the time the hypervisor stole meanwhile (see
/// [`steal_ns`]): the wall time it would have taken on CPUs of its own. Equal to `wall_s` on a host that steals nothing; never less
/// than half of it.
pub fn unstolen_wall_s(wall_s: f64, steal_ns: u64) -> f64 {
    (wall_s - steal_ns as f64 / 1e9).max(wall_s / 2.0)
}

/// The timed runs' rates with and without the stolen time taken out,
/// and the share of CPU time the host stole during them; `walls` holds
/// each run's wall seconds and stolen ns (see [`steal_ns`]).
pub fn stolen_line(monitor_ticks: u64, walls: &[(f64, u64)]) -> String {
    let ticks = monitor_ticks as f64;
    let unstolen = sorted(
        &walls
            .iter()
            .map(|&(w, s)| ticks / unstolen_wall_s(w, s))
            .collect::<Vec<_>>(),
    );
    let plain: Vec<f64> = walls.iter().map(|(w, _)| ticks / w).collect();
    let wall: f64 = walls.iter().map(|(w, _)| w).sum();
    let stolen: f64 = walls.iter().map(|(_, s)| *s as f64 / 1e9).sum();
    format!(
        "timed runs: {} at {:.0} / {:.0} / {:.0} monitor-ticks/s (min / median / max) with \
         stolen time taken out, median {:.0} without; the host stole {:.1}% of the CPU time",
        walls.len(),
        unstolen[0],
        median(&unstolen),
        unstolen[unstolen.len() - 1],
        median(&plain),
        100.0 * ratio(stolen, wall),
    )
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: the CPUs this process could
/// run on before any pinning.
pub fn nproc() -> usize {
    all_cpus().len().max(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// The commit of a git checkout at `root`, read from the files under
/// `.git` (no git process); `None` outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the paths and bytes of every file under `dirs`, in path
/// order: identifies the source tree when there is no git commit.
fn source_digest(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        let path = root.join(d);
        if path.is_file() {
            files.push(path);
        } else {
            walk(&path, &mut files);
        }
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// One line naming the host and build, so numbers from different hosts
/// or trees are never compared unknowingly.
pub fn host_stamp(workload: &str, seed: u64) -> String {
    let root = Path::new(".");
    format!(
        "host: cores={} cpu=\"{}\" rustc=\"{}\" commit={} source_digest={} workload={workload} seed={seed}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit(root).unwrap_or_else(|| "none".into()),
        source_digest(root, &["crates", "vendor", "perfbench/src", "Cargo.lock"]),
    )
}
