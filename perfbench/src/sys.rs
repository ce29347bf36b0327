//! Operating-system readings: thread CPU clocks, `/proc` counters of the
//! daemon child, timer slack, and the provenance block every result
//! carries. Linux only; the two libc calls are declared here against the
//! libc that `std` already links.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `PR_SET_TIMERSLACK` on Linux.
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // x86-64/aarch64 Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Sets the calling thread's timer slack to 1 ns, so a load thread
/// sleeping until a request is due wakes within microseconds instead of
/// the default 50 µs slack. Best effort.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // affects the calling thread; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// CPU time used so far by every live thread of process `pid`, in
/// nanoseconds: the sum of the first field of
/// `/proc/<pid>/task/*/schedstat`.
pub fn process_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
        })
        .sum()
}

/// Peak resident set size of process `pid` (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// The provenance block: commit and dirty flag of the working directory
/// (discovered at run time; "unknown" outside a git checkout), rustc
/// version, CPU model, core count and the kernel tier in use.
pub fn provenance_json() -> String {
    // Only the working directory's own repository counts, not one that
    // happens to enclose it.
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    let commit = (top.is_some() && top == here)
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten();
    let dirty = commit
        .as_ref()
        .map(|_| command_line("git", &["status", "--porcelain", "--untracked-files=no"]).is_some());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"commit\": {}, \"dirty\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}, \"kernel_tier\": {}}}",
        json_str(commit.as_deref().unwrap_or("unknown")),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_str(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        json_str(&cpu),
        std::thread::available_parallelism().map_or(0, usize::from),
        json_str(qpp_nn::KernelTier::current().name()),
    )
}

/// Median time of [`reference_seconds`] on the host the benchmark was
/// introduced on (2-vCPU Xeon, AVX-512), in seconds.
const REFERENCE_NOMINAL_S: f64 = 0.0038;

/// A fixed reference workload: integer mixing in L1, an f32 dot product
/// over an L2-sized array and a strided walk over 8 MiB. Returns its
/// wall time in seconds. Its work never changes, so its time tracks how
/// fast the shared host is running this process right now.
fn reference_seconds() -> f64 {
    use std::hint::black_box;
    use std::sync::OnceLock;
    static DATA: OnceLock<(Vec<f32>, Vec<u64>)> = OnceLock::new();
    let (floats, words) = DATA.get_or_init(|| {
        (
            (0..65_536).map(|i| (i % 97) as f32 * 0.01).collect(),
            (0..1 << 20).map(|i| i as u64 * 2_654_435_761).collect(),
        )
    });
    let t0 = std::time::Instant::now();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..400_000u64 {
        h = (h ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
    }
    let mut acc = 0.0f32;
    for _ in 0..12 {
        acc += black_box(&floats[..])
            .iter()
            .zip(floats.iter().rev())
            .map(|(a, b)| a * b)
            .sum::<f32>();
    }
    let mut idx = 0usize;
    let mut sum = 0u64;
    for _ in 0..200_000 {
        idx = (idx + 4_099) & (words.len() - 1);
        sum = sum.wrapping_add(black_box(words)[idx]);
    }
    black_box((h, acc, sum));
    t0.elapsed().as_secs_f64()
}

/// Reference-workload samples taken through a run. The shared host's
/// speed drifts by tens of percent over minutes; CPU-bound figures are
/// divided by the run's slowdown so that drift does not read as a change
/// of the engine.
#[derive(Debug, Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Times the reference workload `n` more times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.0.push(reference_seconds());
        }
    }

    /// The run's median reference time over the nominal one: above 1 when
    /// the host ran slow.
    pub fn slowdown(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2] / REFERENCE_NOMINAL_S
    }
}
