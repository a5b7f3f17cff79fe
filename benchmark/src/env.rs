//! What the process and the machine say about a run: memory high-water mark,
//! CPU time, write syscalls, and the environment fingerprint stored beside
//! every result so a number can be audited without re-running it.

use pwm_obs::JsonValue;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// A `Key:   value unit` line of a /proc status-style file.
fn field_kb(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    field_kb(&read("/proc/self/status"), "VmHWM").unwrap_or(0.0) / 1024.0
}

/// utime + stime of a /proc `stat` line, in seconds. Linux reports them in
/// clock ticks of 1/100 s on every architecture this runs on.
fn stat_cpu_secs(stat: &str) -> f64 {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn process_cpu_secs() -> f64 {
    stat_cpu_secs(&read("/proc/self/stat"))
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    stat_cpu_secs(&read("/proc/thread-self/stat"))
}

/// Bytes passed to write-like syscalls and the number of such syscalls so
/// far (`wchar`, `syscw` of /proc/self/io) — taken before and after an
/// in-process replay they give the WAL's write traffic.
pub fn write_io() -> (u64, u64) {
    let text = read("/proc/self/io");
    let get = |key: &str| field_kb(&text, key).unwrap_or(0.0) as u64;
    (get("wchar"), get("syscw"))
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in /proc/mounts).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// A fixed integer spin loop, scored in million iterations per second
/// (best of five 20 ms slices): the calibration row that says how fast this
/// machine was when the numbers beside it were taken.
pub fn spin_score() -> f64 {
    const ITERS: u64 = 4_000_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..ITERS {
                x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
            }
            std::hint::black_box(x);
            ITERS as f64 / t0.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Environment fingerprint and calibration row of a result file.
pub fn fingerprint(wal_dir: &Path) -> JsonValue {
    let cpuinfo = read("/proc/cpuinfo");
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpus_online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    // run.sh confines the benchmark to one CPU (see the README).
    let cpus_allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::Obj(vec![
        ("nproc".into(), JsonValue::Int(cpus_online as i64)),
        ("cpus_allowed".into(), JsonValue::Int(cpus_allowed as i64)),
        ("cpu_model".into(), JsonValue::Str(cpu_model)),
        (
            "kernel".into(),
            JsonValue::Str(read("/proc/sys/kernel/osrelease").trim().to_string()),
        ),
        (
            "rustc".into(),
            JsonValue::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("wal_fs_type".into(), JsonValue::Str(fs_type(wal_dir))),
        (
            "spin_score_miter_per_s".into(),
            JsonValue::Float(spin_score()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_name_parses() {
        let line =
            "42 (policy rest (loop)) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(stat_cpu_secs(line), 3.0);
        assert_eq!(stat_cpu_secs(""), 0.0);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t   20480 kB\nwchar: 77\n";
        assert_eq!(field_kb(text, "VmHWM"), Some(20480.0));
        assert_eq!(field_kb(text, "wchar"), Some(77.0));
        assert_eq!(field_kb(text, "VmRSS"), None);
    }

    #[test]
    fn live_procfs_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_secs() >= thread_cpu_secs());
        assert_ne!(fs_type(Path::new(".")), "unknown");
        assert!(spin_score() > 0.0);
    }
}
