//! Recorded digests for the default seed. Every table, figure, hit list and
//! report a workload produces is deterministic per seed, so a run at seed
//! `0x9000` and full size must reproduce `golden/seed_0x9000.txt` digest for
//! digest: the byte-identical-tables contract as a benchmark gate.

use std::path::PathBuf;

const GOLDEN: &str = include_str!("../golden/seed_0x9000.txt");

/// One recorded digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: String,
    pub name: String,
    pub digest: u64,
}

/// Parses `workload name 0x<hex>` lines; `#` starts a comment.
pub fn parse(text: &str) -> Vec<Entry> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (workload, name, hex) = (parts.next()?, parts.next()?, parts.next()?);
            let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
            Some(Entry {
                workload: workload.to_string(),
                name: name.to_string(),
                digest,
            })
        })
        .collect()
}

pub fn render(entries: &[Entry]) -> String {
    let mut out = String::from(
        "# Digests of every workload's outputs at seed 0x9000 and full size.\n\
         # Regenerate with `qbench golden --write` after a change that is meant\n\
         # to alter a table; any other difference is a bug.\n",
    );
    for e in entries {
        out.push_str(&format!("{} {} {:#018x}\n", e.workload, e.name, e.digest));
    }
    out
}

/// Every compiled-in entry.
pub fn all() -> Vec<Entry> {
    parse(GOLDEN)
}

/// The compiled-in entries of `workload`.
pub fn recorded(workload: &str) -> Vec<Entry> {
    all()
        .into_iter()
        .filter(|e| e.workload == workload)
        .collect()
}

/// Where `qbench golden --write` puts the file: next to this crate's manifest.
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/seed_0x9000.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let entries = vec![
            Entry {
                workload: "sweep_sparse".into(),
                name: "zmap_v4".into(),
                digest: 0xdead_beef,
            },
            Entry {
                workload: "mux_manyconn".into(),
                name: "mux_tables".into(),
                digest: u64::MAX,
            },
        ];
        assert_eq!(parse(&render(&entries)), entries);
    }

    #[test]
    fn golden_file_covers_every_workload() {
        for name in crate::workloads::NAMES {
            assert!(!recorded(name).is_empty(), "no golden digests for {name}");
        }
    }
}
