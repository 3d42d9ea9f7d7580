//! The host and run stamp carried by every result, and the process
//! high-water mark.

use std::path::Path;

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Threads the library's rayon pool runs parallel work on.
    pub rayon_threads: usize,
    /// Per-core L2 size, bytes (0 when sysfs does not say).
    pub l2_bytes: u64,
    /// L3 size, bytes (0 when sysfs does not say).
    pub l3_bytes: u64,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Stamp {
    /// Probe the host; the commit is read from `.git` under `root`.
    pub fn probe(root: &Path) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            cpu: cpu_model(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// `key=value` pairs, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("rayon_threads", self.rayon_threads.to_string()),
            ("l2_bytes", self.l2_bytes.to_string()),
            ("l3_bytes", self.l3_bytes.to_string()),
            ("cpu", self.cpu.clone()),
            ("commit", self.commit.clone()),
            ("rustc", self.rustc.to_string()),
        ]
    }
}

/// Size of the unified or data cache at `level` for cpu0, from sysfs.
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        let lvl = read("level").trim().parse::<u32>().ok();
        let kind = read("type");
        if lvl == Some(level) && kind.trim() != "Instruction" {
            return parse_size(read("size").trim());
        }
    }
    0
}

/// Parse a sysfs cache size such as `2048K` or `32M`.
fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mult)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit `HEAD` names, read from the files under `.git`.
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
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// The process's resident-set high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time the process has run so far, seconds, summed over its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`). The kernel counts neither the
/// time the hypervisor steals from the guest nor the time other
/// processes hold the CPU, so a span of it measures the work done, not
/// how contended the host was. NaN if the clock cannot be read.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through `tp`, which
    // points at a live value with the C layout.
    match unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } {
        0 => ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("2048K"), 2 << 20);
        assert_eq!(parse_size("32M"), 32 << 20);
        assert_eq!(parse_size("512"), 512);
        assert_eq!(parse_size("x"), 0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() - before > 0.02);
    }
}
