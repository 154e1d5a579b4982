//! Lines of Rust per crate: every line of `crates/<name>/src/**/*.rs`
//! up to the file's first `#[cfg(test)]` item, so unit-test modules at
//! the end of a file do not count. Reported as information, not gated.

use std::fs;
use std::path::Path;

/// Lines of `src` before its first `#[cfg(test)]` line.
pub fn non_test_lines(src: &str) -> usize {
    src.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

fn dir_lines(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                fs::read_to_string(&path).map_or(0, |s| non_test_lines(&s))
            } else {
                0
            }
        })
        .sum()
}

/// `(crate directory name, lines)` for every crate under `crates`,
/// sorted by name.
pub fn per_crate(crates: &Path) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = fs::read_dir(crates)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, dir_lines(&e.path().join("src")))
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_before_the_test_module() {
        let src = "fn a() {}\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(non_test_lines(src), 3);
        assert_eq!(non_test_lines("fn a() {}\n"), 1);
        assert_eq!(non_test_lines(""), 0);
    }

    #[test]
    fn counts_this_repository() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
        let counts = per_crate(&crates);
        assert!(counts.iter().any(|(name, n)| name == "core" && *n > 0));
    }
}
