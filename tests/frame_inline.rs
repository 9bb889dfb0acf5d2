//! The frame stack stays on the inlined path.
//!
//! Users build the library with plain `--release`, without LTO, so a
//! non-generic function from another crate is an opaque call unless it
//! is marked `#[inline]`. Native resolve drives one frame per object
//! level on every shared-memory step, so each frame's `resume` and the
//! simulator helpers it calls per step must carry `#[inline]`. This
//! test scans the sources (std-only, a line scan rather than a parser)
//! and fails on any that fell off:
//!
//! * every `fn resume` in an `impl … Frame for` block under
//!   `crates/primitives` and `crates/algorithms`, outside `#[cfg(test)]`
//!   modules;
//! * the listed per-step helpers of `rtas-sim` and `rtas-primitives`.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in fs::read_dir(&at).unwrap_or_else(|e| panic!("read {at:?}: {e}")) {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The lines of `path` before its test module.
fn non_test_lines(path: &Path) -> Vec<String> {
    let source = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .map(str::to_string)
        .collect()
}

/// Whether the attributes and doc comments directly above line `at`
/// include `#[inline]`.
fn is_inline(lines: &[String], at: usize) -> bool {
    lines[..at]
        .iter()
        .rev()
        .map(|line| line.trim())
        .take_while(|line| line.starts_with("#[") || line.starts_with("///"))
        .any(|line| line == "#[inline]" || line.starts_with("#[inline("))
}

/// `file:line` of every `fn resume` in an `impl … Frame for` block of
/// `lines`, with whether it is marked `#[inline]`.
fn frame_resumes(path: &Path, lines: &[String]) -> Vec<(String, bool)> {
    let mut found = Vec::new();
    let mut in_frame_impl = false;
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("impl") {
            in_frame_impl = trimmed.contains(" Frame for ");
        } else if in_frame_impl && trimmed.starts_with("fn resume(") {
            found.push((format!("{}:{}", path.display(), i + 1), is_inline(lines, i)));
        }
    }
    found
}

#[test]
fn every_frame_resume_is_inline() {
    let root = repo_root();
    let mut resumes = Vec::new();
    for dir in ["crates/primitives/src", "crates/algorithms/src"] {
        for path in rust_files(&root.join(dir)) {
            let lines = non_test_lines(&path);
            let rel = path
                .strip_prefix(&root)
                .expect("under the repo")
                .to_path_buf();
            resumes.extend(frame_resumes(&rel, &lines));
        }
    }
    // Both splitters, the 2/3-process elections, TAS-from-LE, the three
    // group-election frames, the chain, the path, both RatRaces, the
    // AA, loglog and logstar elections and the combiner: a scan that
    // finds fewer has broken.
    assert!(
        resumes.len() >= 16,
        "found only {} frame impls: {resumes:?}",
        resumes.len()
    );
    let missing: Vec<&str> = resumes
        .iter()
        .filter(|(_, inline)| !inline)
        .map(|(at, _)| at.as_str())
        .collect();
    assert!(
        missing.is_empty(),
        "Frame::resume without #[inline] (an opaque cross-crate call on every step): {missing:?}"
    );
}

/// Per-step helpers outside the `Frame` impls: (file, the header line
/// of their impl block, the start of their signature line).
const HELPERS: &[(&str, &str, &str)] = &[
    (
        "crates/sim/src/protocol.rs",
        "impl Resume {",
        "pub fn read_value(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl Randomness for SplitMix64 {",
        "fn choose(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl Randomness for SplitMix64 {",
        "fn bernoulli(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl Randomness for SplitMix64 {",
        "fn coin(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl Randomness for SplitMix64 {",
        "fn geometric_capped(",
    ),
    ("crates/sim/src/rng.rs", "impl SplitMix64 {", "pub fn new("),
    (
        "crates/sim/src/rng.rs",
        "impl SplitMix64 {",
        "pub fn split(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl SplitMix64 {",
        "pub fn next_u64(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl SplitMix64 {",
        "pub fn next_below(",
    ),
    ("crates/sim/src/rng.rs", "impl SplitMix64 {", "pub fn coin("),
    (
        "crates/sim/src/rng.rs",
        "impl SplitMix64 {",
        "pub fn bernoulli(",
    ),
    (
        "crates/sim/src/rng.rs",
        "impl SplitMix64 {",
        "pub fn geometric_capped(",
    ),
    (
        "crates/primitives/src/two_process.rs",
        "impl TwoProcessFrame {",
        "pub fn new(",
    ),
];

#[test]
fn per_step_helpers_are_inline() {
    let root = repo_root();
    let mut missing = Vec::new();
    for &(file, header, signature) in HELPERS {
        let lines = non_test_lines(&root.join(file));
        let start = lines
            .iter()
            .position(|line| line == header)
            .unwrap_or_else(|| panic!("{file}: no `{header}`"));
        let end = start
            + lines[start..]
                .iter()
                .position(|line| line == "}")
                .unwrap_or_else(|| panic!("{file}: `{header}` never closes"));
        let at: Vec<usize> = (start..end)
            .filter(|&i| lines[i].trim_start().starts_with(signature))
            .collect();
        assert_eq!(
            at.len(),
            1,
            "{file}: expected one `{signature}` in `{header}`, found lines {at:?}"
        );
        if !is_inline(&lines, at[0]) {
            missing.push(format!("{file}:{} {signature}", at[0] + 1));
        }
    }
    assert!(missing.is_empty(), "helpers without #[inline]: {missing:?}");
}
