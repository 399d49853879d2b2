//! Peak resident set size (`VmHWM`) from `/proc/<pid>/status`.

use std::io;

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut words = rest.split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// Peak RSS of process `pid` (this process for `None`), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path)?;
    vm_hwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no VmHWM in {path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_status_file() {
        let text = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let kb = vm_hwm_kb(&text).expect("VmHWM line");
        assert!(kb > 0);
        // The high-water mark is never below the current RSS.
        let rss = text
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|r| r.split_whitespace().next()?.parse::<u64>().ok())
            .expect("VmRSS line");
        assert!(kb >= rss);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(peak_rss_mb(Some(std::process::id())).unwrap() > 0.0);
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(vm_hwm_kb("Name:\tx\nVmHWM:\t   34816 kB\n"), Some(34816));
        assert_eq!(vm_hwm_kb("Name:\tx\nVmRSS:\t 100 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }
}
