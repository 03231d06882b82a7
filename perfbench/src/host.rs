//! Host facts recorded with every run, and the process's peak memory.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Commit of the checkout, when it is a git work tree. Discovery stops
/// at the working directory, so nothing outside it is read.
fn git_rev() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_ref().and_then(|d| d.parent()).map(|p| p.to_owned());
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "none".to_string(),
    }
}

/// One line naming the host: cores seen, AVX2 kernel availability, the
/// commit, and whether a GEMM kernel is forced through the environment.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    format!(
        "host: nproc={nproc} simd_available={} git_rev={} ZG_GEMM_KERNEL={}",
        zg_tensor::simd_available(),
        git_rev(),
        std::env::var("ZG_GEMM_KERNEL").unwrap_or_else(|_| "unset".into()),
    )
}
