//! Every public function, constant and static of a workspace library has a
//! caller outside its crate.
//!
//! rustc's dead-code lint cannot see an unused `pub` item, so this test
//! does it by name: each `pub fn`, `pub const fn`, `pub const` and
//! `pub static` declared under `crates/*/src` (binaries excepted) must be
//! named, as a whole word, in some file outside that crate's `src/`: the
//! other crates, the binaries, `crates/*/tests`, the root `src/`, `tests/`
//! and `examples/`, `perfbench/src` and `README.md`. An item nothing else
//! names belongs at `pub(crate)`, where rustc finds it if it is dead.
//!
//! Types are not checked (some stay `pub` only because a public signature
//! names them), and a common name such as `new` passes trivially; the test
//! keeps distinctive dead names from coming back.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|entry| entry.expect("readable directory").path()) {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// The name a `pub fn`, `pub const fn`, `pub const` or `pub static` line
/// declares.
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "fn ", "const ", "static "]
        .iter()
        .find_map(|keyword| rest.strip_prefix(keyword))?;
    words(rest).next()
}

#[test]
fn every_public_function_and_constant_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: PathBuf| {
        let text = fs::read_to_string(&path).expect("readable source file");
        (path, text)
    };
    let crate_files: Vec<(PathBuf, String)> = rust_files(&root.join("crates"))
        .into_iter()
        .map(read)
        .collect();
    let mut shared: Vec<PathBuf> = ["src", "tests", "examples", "perfbench/src"]
        .iter()
        .flat_map(|dir| rust_files(&root.join(dir)))
        .collect();
    shared.push(root.join("README.md"));
    let shared: Vec<(PathBuf, String)> = shared.into_iter().map(read).collect();

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("readable directory").path())
        .collect();
    crate_dirs.sort();
    let mut declarations = 0;
    let mut offenders = Vec::new();
    for crate_dir in crate_dirs {
        let (src, bin) = (crate_dir.join("src"), crate_dir.join("src/bin"));
        let is_library = |path: &Path| path.starts_with(&src) && !path.starts_with(&bin);
        let mut outside = HashSet::new();
        for (_, text) in crate_files
            .iter()
            .filter(|(path, _)| !is_library(path))
            .chain(&shared)
        {
            outside.extend(words(text));
        }
        for (path, text) in crate_files.iter().filter(|(path, _)| is_library(path)) {
            for (index, line) in text.lines().enumerate() {
                let Some(name) = declared_name(line) else {
                    continue;
                };
                declarations += 1;
                if !outside.contains(name) {
                    let path = path.strip_prefix(root).unwrap_or(path);
                    offenders.push(format!("{}:{}: {name}", path.display(), index + 1));
                }
            }
        }
    }
    assert!(
        declarations > 0,
        "no public declarations under crates/*/src"
    );
    assert!(
        offenders.is_empty(),
        "{} public items are named nowhere outside their crate; make them \
         pub(crate), and delete them if rustc then finds them dead:\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}
