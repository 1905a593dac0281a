//! Parallel (workload × config) sweep execution.
//!
//! Every matrix artifact reduces to the same shape: a list of prepared
//! workloads, a list of named configurations, and one independent
//! simulation per pair. [`run_matrix`] fans those cells out across OS
//! threads (plain `std::thread::scope` — the builder environment has no
//! crates.io access, so no rayon) while keeping results in deterministic
//! (workload-major) order regardless of the thread count: the simulations
//! share nothing, so scheduling can only reorder *when* a cell runs, never
//! what it computes.

use crate::{run, Prepared};
use aim_pipeline::{SimConfig, SimStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Results of a (workload × config) sweep, workload-major: cell `(w, c)` is
/// workload `w` under config `c`, in the exact order the inputs were given.
#[derive(Debug, Clone)]
pub struct Matrix {
    n_configs: usize,
    cells: Vec<SimStats>,
}

impl Matrix {
    /// Number of configurations per workload.
    pub fn n_configs(&self) -> usize {
        self.n_configs
    }

    /// Number of workloads.
    pub fn n_workloads(&self) -> usize {
        self.cells.len().checked_div(self.n_configs).unwrap_or(0)
    }

    /// The statistics for workload `w` under config `c`.
    pub fn get(&self, w: usize, c: usize) -> &SimStats {
        assert!(c < self.n_configs, "config index {c} out of range");
        &self.cells[w * self.n_configs + c]
    }

    /// All configs' statistics for workload `w`, in config order.
    pub fn row(&self, w: usize) -> &[SimStats] {
        &self.cells[w * self.n_configs..(w + 1) * self.n_configs]
    }

    /// Iterates cells as `(workload_index, config_index, stats)`,
    /// workload-major.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &SimStats)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, s)| (i / self.n_configs, i % self.n_configs, s))
    }
}

/// Runs every (workload, config) pair on up to `jobs` worker threads and
/// returns the results in deterministic workload-major order.
///
/// `jobs` is used as given (clamped to the cell count); pass the result of
/// [`resolve_jobs`](crate::resolve_jobs) to honor `--jobs`/`AIM_JOBS`.
/// With `jobs <= 1` the sweep runs inline on the calling thread.
///
/// # Panics
///
/// Panics if any simulation fails (validation or deadlock), as [`run`]
/// does; a worker panic propagates to the caller.
pub fn run_matrix(prepared: &[Prepared], configs: &[(String, SimConfig)], jobs: usize) -> Matrix {
    let n_configs = configs.len();
    let total = prepared.len() * n_configs;
    if total == 0 {
        return Matrix {
            n_configs,
            cells: Vec::new(),
        };
    }

    let jobs = jobs.clamp(1, total);
    if jobs == 1 {
        let cells = prepared
            .iter()
            .flat_map(|p| configs.iter().map(|(_, cfg)| run(p, cfg)))
            .collect();
        return Matrix { n_configs, cells };
    }

    // Work-stealing over a shared cell counter: each worker claims the next
    // unclaimed cell and writes its result into that cell's dedicated slot,
    // so completion order is irrelevant to the output order.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SimStats>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let stats = run(&prepared[i / n_configs], &configs[i % n_configs].1);
                *slots[i].lock().expect("result slot lock") = Some(stats);
            });
        }
    });

    let cells = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every claimed cell produced a result")
        })
        .collect();
    Matrix { n_configs, cells }
}

/// Like [`run_matrix`], but also reports the sweep's wall-clock time (the
/// figure [`SweepReport`](crate::SweepReport) records).
pub fn run_matrix_timed(
    prepared: &[Prepared],
    configs: &[(String, SimConfig)],
    jobs: usize,
) -> (Matrix, Duration) {
    let start = Instant::now();
    let matrix = run_matrix(prepared, configs, jobs);
    (matrix, start.elapsed())
}
