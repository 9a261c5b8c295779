//! An output file `figures` cannot write is an error, not a note on
//! stderr: CI byte-diffs the files it writes, and a run that left a stale
//! file behind must not pass for one that refreshed it.

use std::process::Command;

#[test]
fn figures_exits_non_zero_when_a_report_cannot_be_written() {
    // `figures -- run` writes its report under `target/figures/` relative
    // to the working directory; make `target` a regular file so the
    // directory cannot be created (works even when running as root, which
    // ignores read-only permission bits).
    let cwd = std::env::temp_dir().join(format!("srlb-figures-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    std::fs::write(cwd.join("target"), b"not a directory").unwrap();
    let spec = srlb_bench::micro::workspace_root().join("examples/specs/poisson_rho089.json");

    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(&cwd)
        .args(["run", spec.to_str().unwrap(), "--tiny"])
        .output()
        .expect("figures binary runs");
    let _ = std::fs::remove_dir_all(&cwd);

    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("could not write output"), "{stderr}");
    // The run itself succeeded: the summary was printed before the write.
    assert!(String::from_utf8_lossy(&output.stdout).contains("poisson-rho0.89-SRdyn"));
}
