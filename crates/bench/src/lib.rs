//! # mec-bench
//!
//! Plain bench harnesses and per-figure regeneration binaries.
//!
//! Run `cargo run -p mec-bench --release --bin run_all` to regenerate
//! every table of the paper (markdown to stdout, CSVs to disk), or
//! `--bin fig3` … `--bin fig9` for a single figure. Pass `--full` for
//! the paper-faithful trial counts and annealing schedule (the default is
//! the quick preset). Only `--full` runs write the committed tables under
//! `results/`; quick runs write theirs to the git-ignored `results/quick/`
//! so that a smoke run never overwrites them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mec_workloads::{Preset, Table};
use std::path::PathBuf;

/// Parses the effort preset from process arguments: `--full` selects
/// [`Preset::Full`], anything else (including nothing) the quick preset.
pub fn preset_from_args() -> Preset {
    if std::env::args().any(|a| a == "--full") {
        Preset::Full
    } else {
        Preset::Quick
    }
}

/// Whether this process's `TSAJS_BENCH_QUICK` selects the quick
/// (CI-scale) preset of the bench harnesses: it does when set to
/// anything but an empty value or `0`.
pub fn quick_from_env() -> bool {
    quick_requested(std::env::var("TSAJS_BENCH_QUICK").ok().as_deref())
}

/// The rule of [`quick_from_env`] on the variable's value (`None` when
/// unset), testable without touching the process environment.
fn quick_requested(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Where a run at `preset` writes its tables: the workspace-level
/// `results/` directory for the paper-faithful preset, whose tables are
/// committed, and `results/quick/` for anything less.
///
/// The workspace is the one `cargo run` (or `cargo test`) names in the
/// process's `CARGO_MANIFEST_DIR`, so a checkout that reuses another
/// checkout's `target/` still writes into its own tree. A binary started
/// without cargo falls back to the directory it was compiled in.
pub fn results_dir(preset: Preset) -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let dir = manifest.join("..").join("..").join("results");
    if preset.is_full() {
        dir
    } else {
        dir.join("quick")
    }
}

/// Prints each table as markdown and saves it as
/// `<results_dir(preset)>/<figure_id>_<index>.csv`.
///
/// # Errors
///
/// Propagates I/O errors from creating the results directory or writing
/// files.
pub fn emit(tables: &[Table], figure_id: &str, preset: Preset) -> std::io::Result<()> {
    let dir = results_dir(preset);
    std::fs::create_dir_all(&dir)?;
    for (i, table) in tables.iter().enumerate() {
        println!("{}", table.to_markdown());
        let path = dir.join(format!("{figure_id}_{i}.csv"));
        table.save_csv(&path)?;
        eprintln!("saved {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_needs_a_value_other_than_empty_or_zero() {
        assert!(!quick_requested(None));
        assert!(!quick_requested(Some("")));
        assert!(!quick_requested(Some("0")));
        assert!(quick_requested(Some("1")));
    }

    #[test]
    fn results_dir_points_into_the_workspace() {
        assert!(results_dir(Preset::Full).ends_with("results"));
        assert!(results_dir(Preset::Quick).ends_with("results/quick"));
    }

    #[test]
    fn emit_writes_csvs() {
        let mut t = Table::new("test", vec!["a".into()]);
        t.push_row(vec!["1".into()]);
        emit(&[t], "unit_test_fig", Preset::Full).unwrap();
        let path = results_dir(Preset::Full).join("unit_test_fig_0.csv");
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn quick_emit_leaves_the_committed_table_untouched() {
        let committed = results_dir(Preset::Full).join("unit_test_quick_0.csv");
        std::fs::write(&committed, "full,table\n").unwrap();
        let mut t = Table::new("test", vec!["a".into()]);
        t.push_row(vec!["1".into()]);
        emit(&[t], "unit_test_quick", Preset::Quick).unwrap();
        let quick = results_dir(Preset::Quick).join("unit_test_quick_0.csv");
        let kept = std::fs::read_to_string(&committed).unwrap();
        let written = std::fs::read_to_string(&quick).unwrap();
        std::fs::remove_file(committed).unwrap();
        std::fs::remove_file(quick).unwrap();
        assert_eq!(kept, "full,table\n");
        assert!(written.starts_with('a'), "got {written:?}");
    }
}
