//! Facts about the host a result was measured on: wall-clock numbers
//! are only comparable between runs on the same host.

use std::path::Path;
use std::process::Command;

/// The `model name` of the first processor in a `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim())
}

/// The commit the benchmark was built from, when run inside a git
/// checkout; `none` otherwise.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One JSON object with `nproc`, the CPU model, `rustc -V` and the
/// git revision.
pub fn facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpu_model(&cpuinfo).unwrap_or("unknown");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        lra_service::proto::escape(cpu),
        lra_service::proto::escape(env!("PERFBENCH_RUSTC_VERSION")),
        lra_service::proto::escape(&git_rev())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_model_name_is_the_cpu() {
        let info = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(info), Some("Intel(R) Xeon(R) Processor"));
        assert_eq!(cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn facts_name_the_compiler() {
        let facts = facts_json();
        assert!(facts.contains("\"rustc\": \"rustc "), "{facts}");
        assert!(facts.contains("\"nproc\": "), "{facts}");
    }
}
