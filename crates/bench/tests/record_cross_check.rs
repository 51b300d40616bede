//! The `record` binary's contract: a storage/reference cross-check
//! mismatch must terminate the process with a **nonzero** exit code, and
//! the healthy pipeline (including the per-thread-count rows) must exit
//! zero. Both paths are driven end-to-end through the real binary.

use std::process::Command;

#[test]
fn corrupt_cross_check_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_record"))
        .arg("--corrupt-cross-check")
        .output()
        .expect("spawn record binary");
    assert!(
        !out.status.success(),
        "deliberately corrupted cross-check must exit nonzero; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cross-check mismatch"),
        "stderr should describe the mismatch:\n{stderr}"
    );
    assert!(
        stderr.contains("counter drift"),
        "stderr should name the drifted counters:\n{stderr}"
    );
}

#[test]
fn smoke_run_exits_zero_and_writes_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_record"))
        .arg("--smoke")
        .output()
        .expect("spawn record binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smoke run must pass its cross-checks:\n{stdout}\n{stderr}"
    );
    // The smoke output path is printed on the last line.
    let path = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("wrote "))
        .expect("record prints the output path");
    let json = std::fs::read_to_string(path).expect("smoke JSON written");
    let _ = std::fs::remove_file(path); // don't accumulate temp files
    // Per-thread-count rows made it into the file.
    for t in [1usize, 2, 4, 8] {
        assert!(
            json.contains(&format!("threads={t}")),
            "missing threads={t} row in:\n{json}"
        );
    }
    assert!(json.contains("\"wall_ms_reference\""));
    // The incremental-maintenance group ran and was cross-checked: its
    // build/insert/recompute/retract rows are all present.
    for row in ["incremental", "/build", "/insert(", "/recompute_after_insert", "/retract("] {
        assert!(json.contains(row), "missing incremental row {row} in:\n{json}");
    }
    // The serving group ran and was cross-checked: the batched vs
    // single-fact round pair and the concurrent-read row are present.
    for row in ["\"server\"", "/batched", "/single_fact", "/readers="] {
        assert!(json.contains(row), "missing server row {row} in:\n{json}");
    }
    // The durability group ran and was gated: the churn memory table
    // (both compaction settings) and the restore-vs-recompute row.
    for row in [
        "\"durability\"",
        "/compaction=on",
        "/compaction=off",
        "\"peak_over_fresh\"",
        "/restore\"",
        "\"restore_speedup\"",
    ] {
        assert!(json.contains(row), "missing durability row {row} in:\n{json}");
    }
    // The query-cache group ran and was oracle-checked: both headline
    // workloads' rows are present with the latency and memory metrics.
    for row in [
        "\"query_cache\"",
        "e1/A/layered_dag(",
        "e5/magic_view/",
        "\"cached_after_churn_ms\"",
        "\"speedup_vs_cold_batch\"",
        "\"view_over_base\"",
    ] {
        assert!(json.contains(row), "missing query_cache row {row} in:\n{json}");
    }
    // The CPU/affinity annotation that qualifies every wall-clock number
    // is machine-readable.
    for row in ["\"machine\"", "\"cpus\"", "\"cpus_allowed_list\""] {
        assert!(json.contains(row), "missing machine annotation {row} in:\n{json}");
    }
}
