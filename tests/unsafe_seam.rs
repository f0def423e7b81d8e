//! One OS seam: `crates/sys` (`netclust-sys`) is the only crate that may
//! hold `unsafe` code, and it holds every `extern "C"` of the product.
//! Every other library root and both product binaries forbid `unsafe`, so
//! the compiler refuses a new seam anywhere else; this test refuses the
//! attribute going missing and a C declaration outside `crates/sys`
//! (DESIGN.md §12).

use std::fs;
use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `.rs` files under `dir`, recursively.
fn sources(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            into.push(path);
        }
    }
}

/// Every `crates/<name>` directory.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn forbids_unsafe(path: &Path) -> bool {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines().any(|line| line.trim() == FORBID)
}

#[test]
fn every_crate_root_but_sys_forbids_unsafe_code() {
    let sys = root().join("crates/sys");
    let mut roots: Vec<PathBuf> = crate_dirs()
        .into_iter()
        .filter(|dir| *dir != sys)
        .map(|dir| dir.join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    roots.push(root().join("src/lib.rs"));
    roots.push(root().join("crates/serve/src/main.rs"));
    sources(&root().join("src/bin"), &mut roots);
    assert!(roots.len() > 10, "{roots:?}");
    let missing: Vec<_> = roots.iter().filter(|path| !forbids_unsafe(path)).collect();
    assert!(missing.is_empty(), "no {FORBID} in {missing:?}");
    assert!(
        !forbids_unsafe(&sys.join("src/lib.rs")),
        "crates/sys is the seam"
    );
}

#[test]
fn no_extern_c_outside_crates_sys() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        if !dir.ends_with("sys") {
            sources(&dir.join("src"), &mut files);
        }
    }
    sources(&root().join("src"), &mut files);
    let needle = concat!("extern ", "\"C\"");
    let offenders: Vec<_> = files
        .iter()
        .filter(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(needle)))
        .collect();
    assert!(
        offenders.is_empty(),
        "{needle} outside crates/sys: {offenders:?}"
    );
    let mut seam = Vec::new();
    sources(&root().join("crates/sys/src"), &mut seam);
    assert!(seam
        .iter()
        .any(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(needle))));
}
