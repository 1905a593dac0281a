//! The artifact driver: every table and figure of the paper's evaluation
//! as one entry of [`all`], run by one command, `aim-bench <artifact>`.
//!
//! A matrix artifact names the (workload × config) sweep it simulates (a
//! [`specs`](crate::specs) entry), a reduce step from the finished
//! [`Matrix`] to the flat rows and summary rows it prints, and an
//! acceptance predicate that returns its acceptance line or the reason it
//! rejects. `litmus` is not a matrix reduction and brings its own run
//! step. [`execute`] runs one entry and returns its [`Output`]; [`emit`]
//! prints the table through one column-aligned printer, writes the
//! `--csv` rows, the JSON report and the host-throughput [`SweepReport`],
//! and turns a failed check or predicate into exit status 1.
//!
//! With `--check`, a matrix artifact is replayed on one worker and its
//! stats fingerprint must not change (jobs=N ≡ jobs=1); an artifact may
//! add checks of its own (`hostperf` replays its matrix on 1-core
//! multi-core machines and pins the huge-far800 fingerprint).

mod studies;

pub use studies::all;

use crate::report::render_csv;
use crate::specs::ArtifactSpec;
use crate::{
    resolve_jobs, run_matrix, run_matrix_timed, stats_fingerprint, Matrix, Options, Prepared,
    Report, ReportFile, SweepReport,
};
use aim_pipeline::SimStats;
use aim_types::wire::{WireMsg, WireValue};
use aim_workloads::Scale;
use std::time::Duration;

/// How a column prints its values. Text, integers and booleans print as
/// they are under every format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// As it is (a float at full precision).
    Plain,
    /// A float at `n` decimals.
    Fixed(usize),
    /// A float at `n` decimals with a `%` sign.
    Pct(usize),
    /// A fraction as a percentage: ×100, `n` decimals, `%` sign.
    Frac(usize),
    /// A signed float at `n` decimals with a `%` sign (`+9.0%`).
    Gain(usize),
    /// A float at `n` decimals with an `x` sign.
    Times(usize),
    /// An integer in thousands, rounded down.
    Kilo,
}

/// One printed column: the row key it shows, its heading and its format.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The row field shown.
    pub key: &'static str,
    /// The heading.
    pub head: &'static str,
    /// How values print.
    pub fmt: Fmt,
}

/// A [`Column`].
const fn col(key: &'static str, head: &'static str, fmt: Fmt) -> Column {
    Column { key, head, fmt }
}

/// What a reduce step returns: the rows the driver prints and writes.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Lines printed above the table.
    pub title: Vec<String>,
    /// The printed columns, in order.
    pub columns: &'static [Column],
    /// The flat rows: printed, written by `--csv`, and the JSON report's
    /// rows when there is one.
    pub rows: Vec<WireMsg>,
    /// Rows printed under the flat rows (suite geomeans, averages); a
    /// field a summary row lacks prints blank.
    pub summary: Vec<WireMsg>,
    /// Lines printed below the table.
    pub notes: Vec<String>,
    /// The artifact's JSON report, if it has one.
    pub report: Option<ReportFile>,
}

impl Table {
    /// A table of `rows` under `columns`.
    pub fn new(columns: &'static [Column], rows: Vec<WireMsg>) -> Table {
        Table {
            columns,
            rows,
            ..Table::default()
        }
    }

    /// A table of `report`'s rows, which also writes `report`.
    pub fn of_report<R: Report>(columns: &'static [Column], report: &R) -> Table {
        Table {
            report: Some(ReportFile::of(report)),
            ..Table::new(columns, report.row_msgs())
        }
    }

    /// Adds lines printed above the table.
    pub fn title<S: Into<String>>(mut self, lines: impl IntoIterator<Item = S>) -> Table {
        self.title.extend(lines.into_iter().map(Into::into));
        self
    }

    /// Adds lines printed below the table.
    pub fn notes<S: Into<String>>(mut self, lines: impl IntoIterator<Item = S>) -> Table {
        self.notes.extend(lines.into_iter().map(Into::into));
        self
    }

    /// Sets the summary rows.
    pub fn summary(mut self, rows: Vec<WireMsg>) -> Table {
        self.summary = rows;
        self
    }

    /// The table as text: title, a ruled header, the rows, the summary
    /// rows under a rule, then the notes. Every column is as wide as its
    /// widest cell; text aligns left and numbers right.
    pub fn render(&self) -> String {
        let body: Vec<Vec<(String, bool)>> = self
            .rows
            .iter()
            .chain(&self.summary)
            .map(|row| {
                self.columns
                    .iter()
                    .map(|c| cell(row.get(c.key), c.fmt))
                    .collect()
            })
            .collect();
        let heads: Vec<(String, bool)> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.head.to_string(), body.first().is_some_and(|r| r[i].1)))
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                body.iter()
                    .chain([&heads])
                    .map(|r| r[i].0.chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[(String, bool)]| {
            let cells: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|((text, left), &w)| {
                    if *left {
                        format!("{text:<w$}")
                    } else {
                        format!("{text:>w$}")
                    }
                })
                .collect();
            format!("{}\n", cells.join("  ").trim_end())
        };
        let rule = format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        );

        let mut out = String::new();
        for title in &self.title {
            out.push_str(title);
            out.push('\n');
        }
        out.push_str(&rule);
        out.push_str(&line(&heads));
        out.push_str(&rule);
        let (rows, summary) = body.split_at(self.rows.len());
        for row in rows {
            out.push_str(&line(row));
        }
        out.push_str(&rule);
        if !summary.is_empty() {
            for row in summary {
                out.push_str(&line(row));
            }
            out.push_str(&rule);
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// One cell's text and whether it aligns left (text does).
fn cell(value: Option<&WireValue>, fmt: Fmt) -> (String, bool) {
    let text = match (value, fmt) {
        (None, _) => String::new(),
        (Some(WireValue::Str(s)), _) => return (s.clone(), true),
        (Some(WireValue::Bool(b)), _) => b.to_string(),
        (Some(WireValue::U64(n)), Fmt::Kilo) => (n / 1000).to_string(),
        (Some(WireValue::U64(n)), _) => n.to_string(),
        (Some(&WireValue::F64(x)), fmt) => match fmt {
            Fmt::Fixed(d) => format!("{x:.d$}"),
            Fmt::Pct(d) => format!("{x:.d$}%"),
            Fmt::Frac(d) => format!("{:.d$}%", 100.0 * x),
            Fmt::Gain(d) => format!("{x:+.d$}%"),
            Fmt::Times(d) => format!("{x:.d$}x"),
            Fmt::Plain | Fmt::Kilo => x.to_string(),
        },
    };
    (text, false)
}

/// A finished matrix, as a reduce step, a check and an acceptance
/// predicate see it.
struct Run<'a> {
    /// The command line.
    opts: &'a Options,
    /// The sweep that ran.
    spec: &'a ArtifactSpec,
    /// Its workloads, in matrix order.
    prepared: &'a [Prepared],
    /// The results.
    matrix: &'a Matrix,
    /// Worker threads used.
    jobs: usize,
    /// Wall-clock time of the sweep.
    wall: Duration,
}

impl Run<'_> {
    /// Workload `w`'s statistics under the config named `config`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no config named `config`.
    fn stats(&self, w: usize, config: &str) -> &SimStats {
        self.matrix.get(w, self.spec.index(config))
    }

    /// Workload `w`'s IPC under the config named `config`.
    fn ipc(&self, w: usize, config: &str) -> f64 {
        self.stats(w, config).ipc()
    }
}

/// A reduce step: the finished matrix to the table.
type Reduce = fn(&Run) -> Table;
/// An acceptance predicate: the acceptance line, or why the run rejects.
type Accept = fn(&Run, &Table) -> Result<String, String>;
/// An artifact's own `--check` step: the lines it prints, or why it fails.
type Check = fn(&Run) -> Result<Vec<String>, String>;

enum Runner {
    Matrix {
        spec: fn(&Options) -> ArtifactSpec,
        workloads: fn(&ArtifactSpec, Scale) -> Vec<Prepared>,
        reduce: Reduce,
        accept: Option<Accept>,
        check: Option<Check>,
    },
    Own(fn(&Options) -> Output),
}

/// One artifact of the evaluation.
pub struct Artifact {
    /// The command name (`aim-bench <name>`).
    pub name: &'static str,
    /// What it reproduces.
    pub about: &'static str,
    runner: Runner,
}

impl Artifact {
    /// A matrix artifact over every workload of its spec at `--scale`.
    fn matrix(
        name: &'static str,
        about: &'static str,
        spec: fn(&Options) -> ArtifactSpec,
        reduce: Reduce,
    ) -> Artifact {
        Artifact {
            name,
            about,
            runner: Runner::Matrix {
                spec,
                workloads: ArtifactSpec::workloads,
                reduce,
                accept: None,
                check: None,
            },
        }
    }

    /// An artifact with its own run step.
    fn own(name: &'static str, about: &'static str, run: fn(&Options) -> Output) -> Artifact {
        Artifact {
            name,
            about,
            runner: Runner::Own(run),
        }
    }

    /// Adds the acceptance predicate.
    fn accept(mut self, predicate: Accept) -> Artifact {
        if let Runner::Matrix { accept, .. } = &mut self.runner {
            *accept = Some(predicate);
        }
        self
    }

    /// Adds an own `--check` step, run after the jobs=1 replay.
    fn check(mut self, step: Check) -> Artifact {
        if let Runner::Matrix { check, .. } = &mut self.runner {
            *check = Some(step);
        }
        self
    }

    /// Replaces the workload selection (by default, the spec's workloads
    /// at `--scale`).
    fn workloads(mut self, select: fn(&ArtifactSpec, Scale) -> Vec<Prepared>) -> Artifact {
        if let Runner::Matrix { workloads, .. } = &mut self.runner {
            *workloads = select;
        }
        self
    }
}

/// The artifact named `name`.
///
/// # Errors
///
/// Returns a one-line message naming the unknown artifact.
pub fn find(name: &str) -> Result<Artifact, String> {
    all()
        .into_iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown artifact `{name}` (`aim-bench list` names them)"))
}

/// One line per artifact: its name and what it reproduces.
pub fn list() -> String {
    all()
        .iter()
        .map(|a| format!("{:<22} {}\n", a.name, a.about))
        .collect()
}

/// One run of an artifact, ready to print and write.
pub struct Output {
    /// The reduced table.
    pub table: Table,
    /// A matrix artifact's host-throughput report.
    pub sweep: Option<SweepReport>,
    /// The `--check` lines, then the acceptance line.
    pub lines: Vec<String>,
    /// `Err` says which check or acceptance predicate failed.
    pub verdict: Result<(), String>,
}

/// Runs `artifact`: simulates its matrix (or its own step), reduces it,
/// runs the `--check` replays when asked, and applies the acceptance
/// predicate. Nothing is printed or written.
///
/// # Panics
///
/// Panics if a simulation fails, as [`run_matrix`] does.
pub fn execute(artifact: &Artifact, opts: &Options) -> Output {
    let (spec, workloads, reduce, accept, check) = match &artifact.runner {
        Runner::Own(run) => return run(opts),
        Runner::Matrix {
            spec,
            workloads,
            reduce,
            accept,
            check,
        } => (spec(opts), workloads, reduce, accept, check),
    };
    let prepared = workloads(&spec, opts.scale);
    let jobs = resolve_jobs(opts.jobs);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let run = Run {
        opts,
        spec: &spec,
        prepared: &prepared,
        matrix: &matrix,
        jobs,
        wall,
    };
    let table = reduce(&run);
    let mut lines = Vec::new();
    let verdict = (|| {
        if opts.check {
            lines.push(replay_check(&run)?);
            if let Some(check) = check {
                lines.extend(check(&run)?);
            }
        }
        if let Some(accept) = accept {
            lines.push(accept(&run, &table)?);
        }
        Ok(())
    })();
    Output {
        sweep: Some(SweepReport::from_matrix(
            spec.artifact,
            jobs,
            wall,
            &prepared,
            &spec.configs,
            &matrix,
        )),
        table,
        lines,
        verdict,
    }
}

/// The `--check` replay: the matrix again on one worker, with the same
/// stats fingerprint.
fn replay_check(run: &Run) -> Result<String, String> {
    let fingerprint = stats_fingerprint(run.matrix);
    let replay = stats_fingerprint(&run_matrix(run.prepared, &run.spec.configs, 1));
    if replay != fingerprint {
        return Err(format!(
            "jobs={} fingerprint {fingerprint:#018x} != jobs=1 fingerprint {replay:#018x}",
            run.jobs
        ));
    }
    Ok(format!(
        "check: jobs=1 replay fingerprint matches ({fingerprint:#018x})"
    ))
}

/// Prints `out` and writes its files: the table, the `--csv` rows, the
/// JSON report, the sweep report, then the check and acceptance lines.
/// Returns the process exit status: 1 if a file the command line asked
/// for could not be written or the verdict rejects (printed as
/// `<name>: REJECT — <reason>`), else 0.
pub fn emit(artifact: &Artifact, opts: &Options, out: &Output) -> i32 {
    print!("{}", out.table.render());
    if let Some(path) = &opts.csv {
        if let Err(e) = std::fs::write(path, render_csv(&out.table.rows)) {
            eprintln!("error: --csv {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    if let Some(report) = &out.table.report {
        match report.write_default() {
            Ok(path) => println!("{} report — {path}", artifact.name),
            Err(e) => eprintln!("{} report not written: {e}", artifact.name),
        }
    }
    if let Some(sweep) = &out.sweep {
        sweep.emit();
    }
    for line in &out.lines {
        println!("{line}");
    }
    match &out.verdict {
        Ok(()) => 0,
        Err(reason) => {
            println!("{}: REJECT — {reason}", artifact.name);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        let all = all();
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|b| b.name != a.name),
                "duplicate {}",
                a.name
            );
            assert_eq!(find(a.name).map(|f| f.name), Ok(a.name));
        }
        let err = find("table_pcax").map(|a| a.name).unwrap_err();
        assert!(err.contains("unknown artifact `table_pcax`"), "{err}");
        assert_eq!(list().lines().count(), all.len());
    }

    #[test]
    fn the_printer_aligns_columns_and_blanks_missing_fields() {
        const COLS: &[Column] = &[
            col("name", "benchmark", Fmt::Plain),
            col("ipc", "IPC", Fmt::Fixed(3)),
            col("rate", "hit%", Fmt::Frac(1)),
            col("gain", "gain", Fmt::Gain(1)),
            col("cycles", "kcyc", Fmt::Kilo),
        ];
        let mut row = WireMsg::new();
        row.put_str("name", "gzip")
            .put_f64("ipc", 1.23456)
            .put_f64("rate", 0.5)
            .put_f64("gain", 9.04)
            .put_u64("cycles", 12_345);
        let mut avg = WireMsg::new();
        avg.put_str("name", "int avg").put_f64("ipc", 2.0);
        let table = Table {
            title: vec!["Title".to_string()],
            columns: COLS,
            rows: vec![row],
            summary: vec![avg],
            notes: vec!["note".to_string()],
            report: None,
        };
        assert_eq!(
            table.render(),
            "Title\n\
             ------------------------------------\n\
             benchmark    IPC   hit%   gain  kcyc\n\
             ------------------------------------\n\
             gzip       1.235  50.0%  +9.0%    12\n\
             ------------------------------------\n\
             int avg    2.000\n\
             ------------------------------------\n\
             note\n"
        );
    }
}
