//! Resident memory of this process, read from `/proc/self/status`.

use std::fs;

/// The value of a `kB` line of `/proc/<pid>/status` (e.g. `VmHWM`), in MiB.
fn field_mb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kb: f64 = line
        .split(':')
        .nth(1)?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn read_field(field: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    field_mb(&status, field).ok_or_else(|| format!("/proc/self/status has no {field} line"))
}

/// Resident set size now (`VmRSS`), in MiB.
pub fn current_mb() -> Result<f64, String> {
    read_field("VmRSS")
}

/// Highest resident set size since start or the last [`reset_peak`]
/// (`VmHWM`), in MiB.
pub fn peak_mb() -> Result<f64, String> {
    read_field("VmHWM")
}

/// Resets `VmHWM` to the current resident set size.
pub fn reset_peak() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Hands the allocator's free pages back to the kernel, so that what is
/// resident afterwards is memory in use. Without this, memory freed by one
/// phase stays resident and a later phase can grow into it unseen.
pub fn release_free_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
        // kernel; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_lines() {
        let status = "Name:\tx\nVmHWM:\t  94208 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(field_mb(status, "VmHWM"), Some(92.0));
        assert_eq!(field_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(field_mb(status, "VmSwap"), None);
        assert_eq!(field_mb(status, "Name"), None);
    }

    #[test]
    fn peak_covers_a_touched_allocation_and_resets() {
        reset_peak().unwrap();
        let before = current_mb().unwrap();
        let v = vec![1u8; 32 << 20];
        assert!(peak_mb().unwrap() >= before + 31.0);
        drop(std::hint::black_box(v));
        reset_peak().unwrap();
        assert!(peak_mb().unwrap() - current_mb().unwrap() < 1.0);
    }
}
