//! The one artifact-report writer.
//!
//! Every machine-readable report an artifact writes (`BENCH_<name>.json`)
//! has the same layout: `"key": value,` header lines (the schema string
//! first), then one flat `{"key": value, ...}` line per row under a list
//! key:
//!
//! ```json
//! {
//!   "schema": "aim-bench-sweep/v1",
//!   "artifact": "fig5_baseline",
//!   "rows": [
//!     {"workload": "gzip", "config": "lsq-48x32", "retired_mips": 7.857000},
//!     {"workload": "mcf", "config": "lsq-48x32", "retired_mips": 6.100000}
//!   ]
//! }
//! ```
//!
//! A report type states only what differs — [`Report::SCHEMA`],
//! [`Report::FILE`], its header fields and one
//! [`WireMsg`] per row — and the provided methods
//! render, write, and export `--csv` from the same rows. Values are
//! spelled by [`WireValue::write_json`] and keys by
//! [`write_json_str`], the serve wire's one escaper and number format
//! (floats at six decimals, non-finite as `0.000000`), so a report line and
//! a server reply spell a value the same way.

use aim_types::wire::{write_json_str, WireMsg, WireValue};

/// A versioned artifact report: a header plus a list of flat rows.
pub trait Report {
    /// The versioned schema string, rendered as the first header field.
    const SCHEMA: &'static str;
    /// The default output file, `BENCH_<name>.json`; the environment
    /// variable `AIM_<NAME>_JSON` overrides it (`BENCH_pcax_sweep.json` →
    /// `AIM_PCAX_SWEEP_JSON`).
    const FILE: &'static str;
    /// The key the row list is stored under.
    const LIST_KEY: &'static str = "rows";
    /// The typed row.
    type Row;

    /// Appends the header fields that follow `schema`, in order.
    fn header(&self, msg: &mut WireMsg);

    /// The typed rows, in report order.
    fn rows(&self) -> &[Self::Row];

    /// Appends one row's fields, in column order.
    fn row(row: &Self::Row, msg: &mut WireMsg);

    /// Every row as a flat message.
    fn row_msgs(&self) -> Vec<WireMsg> {
        self.rows()
            .iter()
            .map(|row| {
                let mut msg = WireMsg::new();
                Self::row(row, &mut msg);
                msg
            })
            .collect()
    }

    /// Renders the report as its schema's JSON (see [`render_report`]).
    fn to_json(&self) -> String {
        let mut header = WireMsg::new();
        header.put_str("schema", Self::SCHEMA);
        self.header(&mut header);
        render_report(&header, Self::LIST_KEY, &self.row_msgs())
    }

    /// Writes the JSON report to `$AIM_<NAME>_JSON` if set, else to
    /// [`Report::FILE`] in the working directory, and returns the path
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write_default(&self) -> std::io::Result<String> {
        ReportFile::of(self).write_default()
    }

    /// Writes the rows to `path` as CSV: the row keys as the header, then
    /// one line per row, each value spelled as in the JSON report (strings
    /// bare).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write_csv(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, render_csv(&self.row_msgs()))
    }
}

/// A report rendered for writing: its default file name and its JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportFile {
    /// The default output file ([`Report::FILE`]).
    pub file: &'static str,
    /// The rendered report ([`Report::to_json`]).
    pub json: String,
}

impl ReportFile {
    /// Renders `report`.
    pub fn of<R: Report + ?Sized>(report: &R) -> ReportFile {
        ReportFile {
            file: R::FILE,
            json: report.to_json(),
        }
    }

    /// Writes the JSON to `$AIM_<NAME>_JSON` if set, else to the default
    /// file in the working directory, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self) -> std::io::Result<String> {
        let path =
            std::env::var(report_env_var(self.file)).unwrap_or_else(|_| self.file.to_string());
        std::fs::write(&path, &self.json)?;
        Ok(path)
    }
}

/// The environment variable overriding a report file's path:
/// `BENCH_pcax_sweep.json` → `AIM_PCAX_SWEEP_JSON`.
fn report_env_var(file: &str) -> String {
    let name = file.strip_prefix("BENCH_").unwrap_or(file);
    let name = name.strip_suffix(".json").unwrap_or(name);
    format!("AIM_{}_JSON", name.to_ascii_uppercase())
}

/// Renders a report: one `"key": value,` line per `header` field, then
/// `list_key` holding one `{"key": value, ...}` line per row.
pub fn render_report(header: &WireMsg, list_key: &str, rows: &[WireMsg]) -> String {
    let mut out = String::with_capacity(256 + rows.len() * 320);
    out.push_str("{\n");
    for (key, value) in header.fields() {
        out.push_str("  ");
        push_field(&mut out, key, value);
        out.push_str(",\n");
    }
    out.push_str("  ");
    write_json_str(list_key, &mut out);
    out.push_str(": [");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
        for (j, (key, value)) in row.fields().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_field(&mut out, key, value);
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn push_field(out: &mut String, key: &str, value: &WireValue) {
    write_json_str(key, out);
    out.push_str(": ");
    value.write_json(out);
}

/// Renders rows as CSV: the first row's keys as the header, then one line
/// per row. Strings are written bare (report strings are plain names with
/// no commas or quotes) and every other value as in the JSON report. No
/// rows render as an empty file.
pub(crate) fn render_csv(rows: &[WireMsg]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut out = first.keys().collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        for (j, (_, value)) in row.fields().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match value {
                WireValue::Str(s) => out.push_str(s),
                other => other.write_json(&mut out),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_var_is_derived_from_the_file_name() {
        assert_eq!(report_env_var("BENCH_sweep.json"), "AIM_SWEEP_JSON");
        assert_eq!(
            report_env_var("BENCH_pcax_sweep.json"),
            "AIM_PCAX_SWEEP_JSON"
        );
        assert_eq!(report_env_var("BENCH_farmem.json"), "AIM_FARMEM_JSON");
    }

    #[test]
    fn empty_lists_keep_the_bracket_layout() {
        let mut header = WireMsg::new();
        header.put_str("schema", "unit/v1");
        assert_eq!(
            render_report(&header, "rounds", &[]),
            "{\n  \"schema\": \"unit/v1\",\n  \"rounds\": [\n  ]\n}\n"
        );
        assert_eq!(render_csv(&[]), "");
    }

    #[test]
    fn csv_header_is_the_row_keys_and_strings_are_bare() {
        let rows: Vec<WireMsg> = [("gzip", 2.358), ("mcf", 1.9)]
            .iter()
            .map(|&(name, ipc)| {
                let mut m = WireMsg::new();
                m.put_str("workload", name)
                    .put_f64("ipc", ipc)
                    .put_u64("n", 7);
                m
            })
            .collect();
        assert_eq!(
            render_csv(&rows),
            "workload,ipc,n\ngzip,2.358000,7\nmcf,1.900000,7\n"
        );
    }
}
