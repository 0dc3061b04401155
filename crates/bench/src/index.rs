//! The experiment index: every table and figure of §4 as one
//! [`Experiment`] row, every paper-vs-measured verdict as one [`Claim`].
//! The `figures` bin, the Tier-1 claim test and EXPERIMENTS.md's claim
//! blocks are all this table, read three ways.

use crate::{claims, experiments as ex, BenchConfig};
use emesh::{run_mesh, MeshConfig, MeshRunResult};
use erapid_core::config::NetworkMode;
use erapid_core::experiment::RunResult;
use erapid_core::runner::{parallel_map, RunPoint};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::ops::RangeInclusive;

/// One simulation an experiment needs, under the label its tables and
/// claims look the result up by. Experiments that share a point (Fig. 5's
/// P-B curve is the baseline's E-RAPID column) share its label, so it runs
/// once.
pub struct Point {
    pub label: String,
    pub network: Network,
    /// The E-RAPID run — or, on [`Network::Mesh`], the E-RAPID run whose
    /// pattern, absolute injection rate and phase plan the mesh is given.
    pub run: RunPoint,
}

/// Which simulator a [`Point`] goes through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// [`RunPoint::run`].
    Erapid,
    /// The electrical 8×8 mesh ([`emesh::run_mesh`]).
    Mesh,
}

/// The label of the paper's 64-node system at `(pattern, mode, load)`.
pub fn p64_label(pattern: &str, mode: NetworkMode, load: f64) -> String {
    format!("{pattern}/{}/{load}", mode.name())
}

/// Results by label. A lookup that finds nothing answers with zeros and
/// remembers the label ([`Results::missing`]) — evaluating the claims
/// against an empty `Results` is how the claim test learns which points to
/// run, and a non-empty `missing` after a real run is a claim reading a
/// point its experiment does not produce.
#[derive(Default)]
pub struct Results {
    erapid: HashMap<String, RunResult>,
    mesh: HashMap<String, MeshRunResult>,
    missing: RefCell<BTreeSet<String>>,
}

impl Results {
    /// Runs every point not already held (first of each label wins): the
    /// E-RAPID points through [`BenchConfig::run`], the mesh points over
    /// the same worker budget.
    pub fn run(&mut self, bench: &BenchConfig, points: Vec<Point>) {
        let mut seen = BTreeSet::new();
        let fresh = points.into_iter().filter(|p| {
            let held = self.erapid.contains_key(&p.label) || self.mesh.contains_key(&p.label);
            !held && seen.insert(p.label.clone())
        });
        let (mesh, erapid): (Vec<_>, Vec<_>) = fresh.partition(|p| p.network == Network::Mesh);
        if seen.is_empty() {
            return;
        }
        eprintln!(
            "  running {} points ({} threads) ...",
            seen.len(),
            bench.threads
        );
        let (labels, runs): (Vec<_>, Vec<_>) = erapid.into_iter().map(|p| (p.label, p.run)).unzip();
        let outs = bench.run(runs);
        self.erapid
            .extend(labels.into_iter().zip(outs.iter().map(|o| o.result)));
        let (labels, runs): (Vec<_>, Vec<_>) = mesh.into_iter().map(|p| (p.label, p.run)).unzip();
        let outs = parallel_map(bench.threads, runs, |p| {
            let rate = p.cfg.capacity().injection_rate(p.load);
            run_mesh(MeshConfig::paper64(), p.pattern, rate, p.plan)
        });
        self.mesh.extend(labels.into_iter().zip(outs));
    }

    fn miss<T: Default>(&self, label: &str) -> T {
        self.missing.borrow_mut().insert(label.to_string());
        T::default()
    }

    /// The E-RAPID result under `label`.
    pub fn at(&self, label: &str) -> RunResult {
        match self.erapid.get(label) {
            Some(r) => *r,
            None => self.miss(label),
        }
    }

    /// The mesh result under `label`.
    pub fn mesh(&self, label: &str) -> MeshRunResult {
        match self.mesh.get(label) {
            Some(r) => *r,
            None => self.miss(label),
        }
    }

    /// The paper's 64-node system at `(pattern, mode, load)`.
    pub fn p64(&self, pattern: &str, mode: NetworkMode, load: f64) -> RunResult {
        self.at(&p64_label(pattern, mode, load))
    }

    /// `metric` of mode `num` ÷ `metric` of mode `den`, both on the
    /// 64-node system at `(pattern, load)`.
    pub fn ratio(
        &self,
        pattern: &str,
        (num, den): (NetworkMode, NetworkMode),
        load: f64,
        metric: Metric,
    ) -> f64 {
        metric(&self.p64(pattern, num, load)) / metric(&self.p64(pattern, den, load))
    }

    /// Labels looked up and not found, so far.
    pub fn missing(&self) -> BTreeSet<String> {
        self.missing.borrow().clone()
    }
}

/// A column of [`RunResult`] a claim compares.
pub type Metric = fn(&RunResult) -> f64;
/// Accepted throughput, packets/node/cycle.
pub const THR: Metric = |r| r.throughput;
/// Mean latency, cycles.
pub const LAT: Metric = |r| r.latency;
/// Average optical power, mW.
pub const PWR: Metric = |r| r.power_mw;

/// One paper-vs-measured verdict: a number read off the results and the
/// band it must stay in.
pub struct Claim {
    /// Test-style name; the nine of the former `tests/paper_claims.rs` keep
    /// theirs.
    pub id: &'static str,
    /// What is measured and what the paper reports for it.
    pub paper: &'static str,
    /// Reads the number off the results (analytic claims ignore them).
    pub measure: fn(&Results) -> f64,
    /// The band the measured value must lie in, calibrated on
    /// `default_plan` at the default seed.
    pub accept: RangeInclusive<f64>,
    /// The band is around *our* value and excludes the paper's: a known,
    /// documented gap that a model change would visibly close or widen.
    pub deviates_from_paper: bool,
}

impl Claim {
    /// A claim whose band agrees with the paper.
    pub const fn new(
        id: &'static str,
        paper: &'static str,
        accept: RangeInclusive<f64>,
        measure: fn(&Results) -> f64,
    ) -> Self {
        Self {
            id,
            paper,
            measure,
            accept,
            deviates_from_paper: false,
        }
    }

    /// Marks the band as bracketing our value, not the paper's.
    pub const fn deviating(mut self) -> Self {
        self.deviates_from_paper = true;
        self
    }
}

/// One table or figure of the evaluation.
pub struct Experiment {
    /// What `figures <id>` selects.
    pub id: &'static str,
    /// Printed above the tables.
    pub title: &'static str,
    /// The simulations it needs (none for the analytic ones).
    pub points: fn(&BenchConfig) -> Vec<Point>,
    /// Prints its tables from the results of `points` (and writes its CSVs
    /// unless `quick`).
    pub render: fn(&BenchConfig, &Results),
    /// Its rows of EXPERIMENTS.md.
    pub claims: &'static [Claim],
}

impl Experiment {
    /// The experiment's claims evaluated on `results`, as the pipe-table
    /// block EXPERIMENTS.md carries between its `claims:<id>` markers, and
    /// whether every value lay inside its band.
    pub fn claim_block(&self, results: &Results) -> (String, bool) {
        let mut block = format!(
            "<!-- claims:{} -->\n| claim | paper | measured | accepted | verdict |\n|---|---|---|---|---|\n",
            self.id
        );
        let mut all_hold = true;
        for c in self.claims {
            let v = (c.measure)(results);
            let holds = c.accept.contains(&v);
            all_hold &= holds;
            let verdict = match (holds, c.deviates_from_paper) {
                (false, _) => "FAIL",
                (true, false) => "✓",
                (true, true) => "≠ paper",
            };
            block += &format!(
                "| `{}` | {} | {v:.3} | {:.3} – {:.3} | {verdict} |\n",
                c.id,
                c.paper,
                c.accept.start(),
                c.accept.end()
            );
        }
        block += &format!("<!-- /claims:{} -->\n", self.id);
        (block, all_hold)
    }
}

fn no_points(_: &BenchConfig) -> Vec<Point> {
    Vec::new()
}

/// Every experiment, in EXPERIMENTS.md order.
pub static INDEX: [Experiment; 10] = [
    Experiment {
        id: "table1",
        title: "Table 1: simulation network parameters",
        points: no_points,
        render: ex::table1,
        claims: claims::TABLE1,
    },
    Experiment {
        id: "arch",
        title: "Figures 1-2: static RWA and transmitter wiring of the R(1,4,4) example",
        points: no_points,
        render: ex::arch,
        claims: &[],
    },
    Experiment {
        id: "fig3",
        title: "Figure 3: power/bandwidth design space, single link",
        points: no_points,
        render: ex::fig3,
        claims: claims::FIG3,
    },
    Experiment {
        id: "fig5",
        title: "Figure 5: 64-node E-RAPID, uniform & complement",
        points: |b| ex::panel_points(b, &["uniform", "complement"]),
        render: |b, r| ex::panels(b, r, &["uniform", "complement"]),
        claims: claims::FIG5,
    },
    Experiment {
        id: "fig6",
        title: "Figure 6: 64-node E-RAPID, butterfly & perfect shuffle",
        points: |b| ex::panel_points(b, &["butterfly", "perfect_shuffle"]),
        render: |b, r| ex::panels(b, r, &["butterfly", "perfect_shuffle"]),
        claims: claims::FIG6,
    },
    Experiment {
        id: "headline",
        title: "Headline: P-B vs NP-B at the loads where DPM has headroom",
        points: ex::headline_points,
        render: ex::headline,
        claims: claims::HEADLINE,
    },
    Experiment {
        id: "ablation",
        title: "Ablations: the design choices and extensions the paper names",
        points: |b| ex::row_points(ex::ablation_tables(b)),
        render: |b, r| ex::row_tables(&ex::ablation_tables(b), r),
        claims: claims::ABLATION,
    },
    Experiment {
        id: "baseline",
        title: "E-RAPID (P-B) vs 8x8 electrical mesh, 64 nodes, identical offered traffic",
        points: ex::baseline_points,
        render: ex::baseline,
        claims: claims::BASELINE,
    },
    Experiment {
        id: "breakdown",
        title: "Latency decomposition: mean cycles per stage (remote packets)",
        points: |b| ex::row_points(ex::breakdown_tables(b)),
        render: |b, r| ex::row_tables(&ex::breakdown_tables(b), r),
        claims: claims::BREAKDOWN,
    },
    Experiment {
        id: "scaling",
        title: "Scaling with board count (D = 8, load 0.6)",
        points: |b| ex::row_points(vec![ex::scaling_table(b)]),
        render: ex::scaling,
        claims: claims::SCALING,
    },
];
