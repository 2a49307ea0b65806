//! What the benchmark reads about its own process and machine.

use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second `/proc/self/stat` counts CPU time in
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`), so a journal on tmpfs cannot pass for disk.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line a command prints, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Nanoseconds a fixed spin loop takes here (best of five), recorded so
/// numbers from different machines can be related.
pub fn calibration_ns() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..4_000_000u32 {
                x = std::hint::black_box(x ^ (x << 13));
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds();
        assert!(calibration_ns() > 0.0);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mib() > 0.5);
        assert_ne!(fs_type(Path::new("/proc/self")), "unknown");
        assert!(nproc() >= 1);
        assert_eq!(command_line("definitely-not-a-program", &[]), "unknown");
    }
}
