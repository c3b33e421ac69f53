//! The one check of the files under the workspace's `tests/golden/`. A
//! mismatch panics with the file, its first differing line and the command
//! that regenerates every golden file,
//! `GOLDEN=write cargo test -q --workspace && cargo test -q --workspace`:
//! under `GOLDEN=write` each check rewrites its file or section with what it
//! rendered, and the plain second run proves every checker agrees with it.

// Each test binary uses part of it.
#![allow(dead_code)]

use std::sync::{Mutex, PoisonError};
use std::{fs, iter, ops::Range, path::Path};

/// Checks (or, under `GOLDEN=write`, rewrites) the whole of `file`.
#[track_caller]
pub fn check(file: &str, actual: &str) {
    check_range(file, actual, |text| 0..text.len());
}

/// The same for the text under `## {heading}` in `file`, up to the next
/// `## `; a heading the file lacks panics in either mode.
#[track_caller]
pub fn check_section(file: &str, heading: &str, actual: &str) {
    check_range(file, actual, |text| {
        let marker = format!("## {heading}\n");
        let start = text.find(&marker).map(|at| at + marker.len());
        let start = start.unwrap_or_else(|| panic!("no `## {heading}` in {file}"));
        let end = text[start..].find("\n## ").map(|end| start + end + 1);
        start..end.unwrap_or(text.len())
    });
}

#[track_caller]
fn check_range(file: &str, actual: &str, range: impl Fn(&str) -> Range<usize>) {
    // Serialises `GOLDEN=write`'s read-modify-write within a test binary.
    static WRITE: Mutex<()> = Mutex::new(());
    let _write = WRITE.lock().unwrap_or_else(PoisonError::into_inner);
    // The nearest `tests/golden` above the calling crate is the workspace's.
    let dirs = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors();
    let dir = dirs.map(|d| d.join("tests/golden")).find(|d| d.is_dir());
    let path = dir.expect("no tests/golden above the crate").join(file);
    let committed = fs::read_to_string(&path).expect(file);
    let mut rendered = committed.clone();
    rendered.replace_range(range(&committed), actual);
    if std::env::var("GOLDEN").as_deref() == Ok("write") {
        if rendered != committed {
            fs::write(&path, rendered).expect(file);
        }
    } else if let Some(report) = mismatch(file, &committed, &rendered) {
        panic!("{report}");
    }
}

/// `None` if the texts are equal, else what a failed check panics with: the
/// file, its first differing line on each side (`None` past the end) and
/// the command that regenerates every golden file.
pub fn mismatch(file: &str, committed: &str, rendered: &str) -> Option<String> {
    fn lines(text: &str) -> impl Iterator<Item = Option<&str>> {
        text.split_inclusive('\n').map(Some).chain(iter::once(None))
    }
    let mut pairs = (1..).zip(lines(committed).zip(lines(rendered)));
    let (line, (want, got)) = pairs.find(|(_, (want, got))| want != got)?;
    Some(format!(
        "{file} differs at line {line}\n  committed: {want:?}\n  rendered:  {got:?}\n\
         regenerate every golden file with \
         `GOLDEN=write cargo test -q --workspace && cargo test -q --workspace`"
    ))
}
