//! What the benchmark reads from the operating system: peak memory,
//! bytes read, and the description of the host every result depends on.

use std::fs;
use std::path::Path;

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `rchar` (bytes this process asked `read` for, page-cache hits
/// included) from the text of `/proc/<pid>/io`.
pub fn parse_io_rchar(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))?
        .trim()
        .parse()
        .ok()
}

/// This process's peak resident set in MB. Each workload runs in a
/// process of its own, so this is that workload's peak.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has read so far.
pub fn read_bytes() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| parse_io_rchar(&s))
        .unwrap_or(0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/mounts`: the entry with the longest mount point that is a
/// prefix of `path`.
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs_type) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs_type.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs_type)| fs_type)
}

/// The host facts every number here depends on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub workdir_fs: String,
}

impl Host {
    pub fn probe(workdir: &Path) -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let absolute = fs::canonicalize(workdir).unwrap_or_else(|_| workdir.to_path_buf());
        let workdir_fs = fs::read_to_string("/proc/mounts")
            .ok()
            .and_then(|m| parse_fs_type(&m, &absolute))
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            workdir_fs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tkbt\nVmPeak:\t  999 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tkbt\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn rchar_is_parsed_from_io_text() {
        let io = "rchar: 4096\nwchar: 12\nsyscr: 3\nread_bytes: 0\n";
        assert_eq!(parse_io_rchar(io), Some(4096));
        assert_eq!(parse_io_rchar("wchar: 12\n"), None);
    }

    #[test]
    fn fs_type_is_the_longest_matching_mount() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(
            parse_fs_type(mounts, Path::new("/tmp/x/y")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_fs_type(mounts, Path::new("/root/repo")).as_deref(),
            Some("ext4")
        );
        assert_eq!(parse_fs_type("", Path::new("/root")), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = read_bytes();
        let _ = fs::read_to_string("/proc/self/status");
        assert!(read_bytes() >= before);
    }
}
