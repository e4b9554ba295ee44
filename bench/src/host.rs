//! What the harness reads from the host — memory high-water mark, CPU
//! time, the revision of the tree it was started in — and the one thing
//! it does to it: [`retain_freed_memory`].

use std::fs;

/// Makes the allocator keep freed memory in the process, as in a server
/// that has been up for a while, by allocating and freeing one 16 MiB
/// block (never touched, so resident memory is unchanged).
///
/// glibc raises its mmap and trim thresholds to the size of the largest
/// mapped block freed so far. A rep tears a whole farm down and the next
/// builds it again; in a fresh process every process image (64–256 KiB
/// blocks, right at the default 128 KiB threshold) is then unmapped and
/// faulted in anew, ~1500 page faults per rep. That is an artefact of
/// measuring in reps, not something a farm that stays up pays per
/// request — and on a virtual machine the time the hypervisor takes to
/// supply those pages varies by 10x, which made `apache_flood` readings
/// from identical runs differ by 25%. With other allocators this is a
/// harmless no-op.
pub fn retain_freed_memory() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
}

fn read_proc(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e} (the harness needs Linux procfs)"))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read_proc("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// User plus system CPU time of this process (all threads, finished
/// ones included) in seconds, at the kernel's 10 ms tick.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read_proc("/proc/self/stat")?;
    // utime and stime are fields 14 and 15; counting starts after the
    // parenthesised command name, which may itself contain spaces.
    let ticks = stat.rsplit_once(')').and_then(|(_, rest)| {
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    });
    ticks
        .map(|t| t / 100.0)
        .ok_or_else(|| "/proc/self/stat is not in the expected format".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `"unknown"` outside a repository.
pub fn git_revision() -> String {
    let read = |path: &str| fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
    }
}
