//! CSV export of scan results and figure series (the paper publishes its
//! aggregates; this is the machine-readable equivalent).

use std::io::Write;
use std::path::Path;

/// Escapes one CSV field.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serializes rows to CSV text.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Writes rows to a CSV file.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(headers, rows).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        let csv = to_csv(
            &["a", "b"],
            &[
                vec!["plain".into(), "with,comma".into()],
                vec!["with\"quote".into(), "x".into()],
            ],
        );
        assert_eq!(csv, "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n");
    }
}
