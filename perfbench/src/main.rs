//! Time-to-confident-answer benchmark for FastFrame.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table5-mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the synthetic Flights data from `--seed`, sets the table up,
//! issues F-q1…F-q9 round-robin from one closed-loop client through
//! `Session → prepare → PreparedQuery::{stream, execute_exact}`, checks
//! every answer against an oracle folded over the generated rows, and prints
//! one JSON line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced re-execution with `--trace 1`. See
//! `perfbench/README.md`.

mod json;
mod oracle;
mod rss;
mod stats;
mod stream;
mod trace;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::progressive::RoundControl;
use fastframe_engine::query::AggQuery;
use fastframe_engine::result::QueryResult;
use fastframe_engine::session::{Session, TableOptions};
use fastframe_workloads::flights::{FlightsConfig, FlightsDataset};
use fastframe_workloads::queries::{all_default_queries, QueryTemplate};

use json::Metric;
use oracle::{Reference, Rows};
use stream::{Issue, Workload};
use trace::{Trace, Work};

/// Rows of synthetic Flights data. On a 2-core host, 4M-row runs spread
/// several-fold in time; 1M rows keep run-to-run spread small.
const ROWS: usize = 1_000_000;
const AIRPORTS: usize = 100;
/// Scan threads, pinned so results do not depend on the host's core count.
/// One, not the host's two: on a 2-vCPU host whose hypervisor steals
/// 15–30% of CPU time, two scan threads made the Table 5 stream about 35%
/// slower and twice as noisy run to run (answer-time spread across seeds
/// 12–17% against 6%).
const THREADS: usize = 1;
/// The paper's error probability (§5.2).
const DELTA: f64 = 1e-15;
/// Set-up repetitions per run; `setup_s` is the fastest. Within one run a
/// set-up's wall time varies by up to 2×, and its median drifts with the
/// host's load from run to run; the fastest of 30 is the steadiest summary.
const SETUP_REPS: usize = 30;
const MEM_TABLE: &str = "flights";
const SEG_TABLE: &str = "flights_seg";
/// Stream salts: the warm-up pass draws its scan starts apart from the
/// measured passes.
const MEASURED: u64 = 1;
const WARMUP: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match parse_args().and_then(run) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Directory for the run's segment file and span dump, inside the build
/// directory so nothing lands in the source tree.
fn work_dir() -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let dir = base.join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Fastest durations of the set-up steps over [`SETUP_REPS`], in seconds.
struct SetupTimes {
    total: f64,
    register: f64,
    write: f64,
    open: f64,
}

/// Sets the table up [`SETUP_REPS`] times — `register_with`, plus
/// `save_table` and `open_table` for the segment workload — and keeps the
/// last session. Each repetition is recorded as spans.
fn set_up(
    workload: Workload,
    dataset: &FlightsDataset,
    segment: &std::path::Path,
    trace: &mut Trace,
) -> Result<(Session, SetupTimes), String> {
    let err = |e: fastframe_engine::error::EngineError| e.to_string();
    let (mut total, mut register, mut write, mut open) = (vec![], vec![], vec![], vec![]);
    let mut session = Session::new();
    for _ in 0..SETUP_REPS {
        session = Session::new();
        let t0 = Instant::now();
        session
            .register_with(
                MEM_TABLE,
                &dataset.table,
                TableOptions::default().seed(dataset.config.seed),
            )
            .map_err(err)?;
        let t1 = Instant::now();
        let (mut t2, mut t3) = (t1, t1);
        if workload.on_segment() {
            session.save_table(MEM_TABLE, segment).map_err(err)?;
            t2 = Instant::now();
            session.open_table(SEG_TABLE, segment).map_err(err)?;
            t3 = Instant::now();
        }
        let root = trace.record("setup", None, None, trace.ns(t0), trace.ns(t3));
        for (name, from, to) in [
            ("store.scramble_build", t0, t1),
            ("store.segment_write", t1, t2),
            ("store.segment_open", t2, t3),
        ] {
            if to > from {
                trace.record(name, None, Some(root), trace.ns(from), trace.ns(to));
            }
        }
        total.push((t3 - t0).as_secs_f64());
        register.push((t1 - t0).as_secs_f64());
        write.push((t2 - t1).as_secs_f64());
        open.push((t3 - t2).as_secs_f64());
    }
    if workload.on_segment() {
        // Queries run on the segment alone, as after a process restart.
        session.drop_table(MEM_TABLE).map_err(err)?;
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "set-up over {SETUP_REPS} repetitions: fastest {:.1} ms, median {:.1} ms",
        min(&total) * 1e3,
        stats::median(&total).unwrap_or(f64::NAN) * 1e3
    );
    Ok((
        session,
        SetupTimes {
            total: min(&total),
            register: min(&register),
            write: min(&write),
            open: min(&open),
        },
    ))
}

/// Bernstein+RT at the paper's δ; ActivePeek for grouped queries and Scan
/// for ungrouped ones, as in the Table 5 harness.
fn approx_config(query: &AggQuery, start_block: usize) -> EngineConfig {
    let strategy = if query.is_grouped() {
        SamplingStrategy::ActivePeek
    } else {
        SamplingStrategy::Scan
    };
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(strategy)
        .delta(DELTA)
        .start_block(start_block)
        .threads(THREADS)
        .build()
}

/// The counts a run must reproduce exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    blocks_fetched: u64,
    blocks_skipped: u64,
    rows_decoded: u64,
    rows_selected: u64,
    rows_sampled: u64,
    rounds: u64,
    index_checks: u64,
}

/// One issued query, timed from the call to the answer.
struct Execution {
    template: usize,
    start: Instant,
    prepared: Instant,
    /// When the observer saw each snapshot.
    snapshots: Vec<Instant>,
    end: Instant,
    /// Mean wall time of the reference scans just before and after the
    /// query; measured passes only.
    reference_ms: f64,
    counts: Counts,
    converged: bool,
    views: usize,
    threads: usize,
    /// `Err` on an engine error, a panic or a wrong answer.
    outcome: Result<(), String>,
}

/// Call-to-answer and call-to-first-snapshot times in ms. Exact's first
/// answer is its only one.
impl Execution {
    fn answer_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn first_answer_ms(&self) -> f64 {
        let first = self.snapshots.first().copied().unwrap_or(self.end);
        (first - self.start).as_secs_f64() * 1e3
    }

    fn answer_ratio(&self) -> f64 {
        self.answer_ms() / self.reference_ms
    }

    fn first_answer_ratio(&self) -> f64 {
        self.first_answer_ms() / self.reference_ms
    }
}

fn execute(
    session: &Session,
    table: &str,
    template: &QueryTemplate,
    reference: &Reference,
    issue: &Issue,
    exact: bool,
) -> Execution {
    let query = &template.query;
    let start = Instant::now();
    let mut prepared_at = start;
    let mut snapshots = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<QueryResult, String> {
        let prepared = session.prepare(table, query).map_err(|e| e.to_string())?;
        prepared_at = Instant::now();
        if exact {
            prepared.execute_exact().map_err(|e| e.to_string())
        } else {
            let progressive = prepared
                .with_config(approx_config(query, issue.start_block))
                .stream(|_| {
                    snapshots.push(Instant::now());
                    RoundControl::Continue
                })
                .map_err(|e| e.to_string())?;
            Ok(progressive.result)
        }
    }))
    .unwrap_or_else(|_| Err("panicked".to_string()));
    let end = Instant::now();
    let mut ex = Execution {
        template: issue.template,
        start,
        prepared: prepared_at,
        snapshots,
        end,
        reference_ms: f64::NAN,
        counts: Counts::default(),
        converged: false,
        views: 0,
        threads: 1,
        outcome: Ok(()),
    };
    match result {
        Ok(r) => {
            let m = &r.metrics;
            ex.counts = Counts {
                blocks_fetched: m.blocks_fetched(),
                blocks_skipped: m.scan.blocks_skipped,
                rows_decoded: m.rows_decoded(),
                rows_selected: m.rows_selected(),
                rows_sampled: m.rows_sampled,
                rounds: m.rounds,
                index_checks: m.scan.index_checks,
            };
            ex.converged = m.stopped_early;
            ex.views = r.groups.len();
            ex.threads = m.threads.max(1);
            ex.outcome = if exact {
                oracle::check_exact(reference, &r)
            } else {
                oracle::check_approx(reference, &r)
            };
        }
        Err(e) => ex.outcome = Err(e),
    }
    if let Err(e) = &ex.outcome {
        eprintln!(
            "perfbench: {} (pass {}, start block {}) failed: {e}",
            template.id, issue.pass, issue.start_block
        );
    }
    ex
}

fn run(args: Args) -> Result<String, String> {
    let workload = args.workload;
    let templates = all_default_queries();
    let data_seed = stream::data_seed(args.seed);
    let config = FlightsConfig::default()
        .rows(ROWS)
        .airports(AIRPORTS)
        .seed(data_seed);
    let dataset = FlightsDataset::generate(config).map_err(|e| e.to_string())?;
    let rows = Rows::new(&dataset.table);
    let references: Vec<Reference> = templates
        .iter()
        .map(|t| oracle::reference(&rows, &t.query))
        .collect::<Result<_, _>>()?;

    let dir = work_dir()?;
    let segment = dir.join(format!("flights-{}.ffseg", std::process::id()));
    let mut trace = Trace::new();
    // What is resident now is the benchmark's own: the generated table and
    // the oracle's copy of it. Both stay alive until the queries are done,
    // so the memory metrics are the high-water marks net of this. Free
    // pages are released before each phase, so that neither set-up nor the
    // queries can grow into memory the previous phase freed.
    rss::release_free_memory();
    let own_mb = rss::current_mb()?;
    rss::reset_peak()?;
    let outcome = set_up(workload, &dataset, &segment, &mut trace).and_then(|(session, setup)| {
        let setup_peak_mb = rss::peak_mb()? - own_mb;
        rss::release_free_memory();
        rss::reset_peak()?;
        let memory = Memory {
            own_mb,
            setup_peak_mb,
        };
        measure(
            &args,
            &templates,
            &rows,
            &references,
            &session,
            &setup,
            &memory,
            &mut trace,
        )
    });
    drop(dataset);
    // The segment's reader is gone with the session; the file goes too.
    let _ = std::fs::remove_file(&segment);
    let (correct, attempted, failed, metrics) = outcome?;
    if args.trace {
        let path = dir.join(format!("{}-seed{}.spans.tsv", workload.name(), args.seed));
        trace
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(json::result_line(correct, attempted, failed, &metrics))
}

type Measured = (bool, u64, u64, Vec<Metric>);

/// Resident memory, in MiB.
struct Memory {
    /// The benchmark's own data, resident before set-up and kept until the
    /// queries end.
    own_mb: f64,
    /// High-water mark of set-up, net of `own_mb`.
    setup_peak_mb: f64,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    templates: &[QueryTemplate],
    rows: &Rows,
    references: &[Reference],
    session: &Session,
    setup: &SetupTimes,
    memory: &Memory,
    trace: &mut Trace,
) -> Result<Measured, String> {
    let workload = args.workload;
    let exact = workload.is_exact();
    let table = if workload.on_segment() {
        SEG_TABLE
    } else {
        MEM_TABLE
    };
    let num_blocks = session
        .source(table)
        .map_err(|e| e.to_string())?
        .num_blocks();
    let run = |issue: &Issue| {
        let t = issue.template;
        execute(session, table, &templates[t], &references[t], issue, exact)
    };

    // One unmeasured pass lets caches fill and lazy set-up (the segment's
    // memoized group enumeration) finish before timing.
    let warmup = stream::query_stream(args.seed, WARMUP, 1, templates.len(), num_blocks);
    let mut failed = warmup
        .iter()
        .map(run)
        .filter(|e| e.outcome.is_err())
        .count() as u64;
    let mut attempted = warmup.len() as u64;

    let issues = stream::query_stream(
        args.seed,
        MEASURED,
        workload.passes(args.seconds),
        templates.len(),
        num_blocks,
    );
    // Each query is bracketed by the reference scan: the oracle's plain fold
    // of the same template over the same rows, fixed benchmark code. The
    // reference time is the mean of the scans just before and just after,
    // so the ratio of the answer's wall time to it cancels the host's speed
    // drift.
    let reference_ms = |template: usize| -> Result<f64, String> {
        let t = Instant::now();
        black_box(oracle::reference(rows, &templates[template].query)?);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    let loop_start = Instant::now();
    let mut executions = Vec::with_capacity(issues.len());
    for issue in &issues {
        let before = reference_ms(issue.template)?;
        let mut ex = run(issue);
        ex.reference_ms = (before + reference_ms(issue.template)?) / 2.0;
        executions.push(ex);
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    // High-water mark of the warm-up and measured passes, net of the
    // benchmark's own data: the session's resident tables and caches plus
    // what the queries allocate.
    let peak_mb = rss::peak_mb()? - memory.own_mb;
    attempted += executions.len() as u64;
    failed += executions.iter().filter(|e| e.outcome.is_err()).count() as u64;

    print_diagnostics(templates, &executions);
    let n = executions.len() as f64;
    let by_template = |f: fn(&Execution) -> f64| -> Vec<Vec<f64>> {
        (0..templates.len())
            .map(|t| {
                executions
                    .iter()
                    .filter(|e| e.template == t)
                    .map(f)
                    .collect()
            })
            .collect()
    };

    let geomean = |f| stats::geomean_of_medians(&by_template(f)).unwrap_or(f64::NAN);
    eprintln!(
        "wall clock, loop including reference scans {:.3} s: answer geomean {:.3} ms, \
         first answer geomean {:.3} ms, reference scan geomean {:.3} ms",
        loop_s,
        geomean(Execution::answer_ms),
        geomean(Execution::first_answer_ms),
        geomean(|e: &Execution| e.reference_ms),
    );
    if !args.trace {
        let blocks: u64 = executions.iter().map(|e| e.counts.blocks_fetched).sum();
        let total = |f: fn(&Execution) -> f64| executions.iter().map(f).sum::<f64>();
        let metrics = vec![
            Metric::new(
                "answer_ref_ratio_geomean",
                geomean(Execution::answer_ratio),
                "ratio",
            ),
            Metric::new(
                "first_answer_ref_ratio_geomean",
                geomean(Execution::first_answer_ratio),
                "ratio",
            ),
            Metric::new(
                "answer_ref_ratio_total",
                total(Execution::answer_ms) / total(|e| e.reference_ms),
                "ratio",
            ),
            Metric::new("blocks_per_query", blocks as f64 / n, "count"),
            Metric::new(
                "correct_frac",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
            Metric::new("setup_s", setup.total, "s"),
            Metric::new("peak_rss_mb", peak_mb, "MiB"),
            Metric::new("setup_peak_rss_mb", memory.setup_peak_mb, "MiB"),
        ];
        return Ok((failed == 0, attempted, failed, metrics));
    }

    let traced = traced_run(
        session,
        table,
        templates,
        references,
        &issues,
        &executions,
        exact,
        trace,
    )?;
    attempted += traced.attempted;
    failed += traced.failed;
    let untraced_ms: f64 = executions.iter().map(Execution::answer_ms).sum();
    eprintln!(
        "tracing overhead: traced executions took {:.1} ms vs {:.1} ms untraced ({:+.1}%)",
        traced.wall_ms,
        untraced_ms,
        (traced.wall_ms / untraced_ms - 1.0) * 100.0
    );
    let mut metrics = traced.metrics;
    metrics.extend([
        Metric::new("store.scramble_build_s", setup.register, "s"),
        Metric::new("store.segment_write_s", setup.write, "s"),
        Metric::new("store.segment_open_ms", setup.open * 1e3, "ms"),
    ]);
    Ok((failed == 0, attempted, failed, metrics))
}

/// Prints, per template, the sample count, the median answer, first answer
/// and reference scan times and ratios, the highest answer-time percentile
/// with at least ten samples beyond it, and the mean blocks fetched.
/// Diagnostics only; not gated.
fn print_diagnostics(templates: &[QueryTemplate], executions: &[Execution]) {
    eprintln!("template  n  answer_ms  first_ms  ref_ms  ratio  first_ratio  answer_tail  blocks");
    for (t, template) in templates.iter().enumerate() {
        let runs: Vec<&Execution> = executions.iter().filter(|e| e.template == t).collect();
        let answer: Vec<f64> = runs.iter().map(|e| e.answer_ms()).collect();
        let first: Vec<f64> = runs.iter().map(|e| e.first_answer_ms()).collect();
        let reference: Vec<f64> = runs.iter().map(|e| e.reference_ms).collect();
        let ratio: Vec<f64> = runs.iter().map(|e| e.answer_ratio()).collect();
        let first_ratio: Vec<f64> = runs.iter().map(|e| e.first_answer_ratio()).collect();
        let tail = match stats::tail_percentile(&answer) {
            Some((p, v)) => format!("p{p}={v:.1}ms"),
            None => "n/a".to_string(),
        };
        let blocks = runs.iter().map(|e| e.counts.blocks_fetched).sum::<u64>() as f64
            / runs.len().max(1) as f64;
        let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
        eprintln!(
            "{:<8} {:>3} {:>9.2} {:>8.2} {:>7.2} {:>6.2} {:>12.3}  {tail}  {blocks:.0}",
            template.id,
            runs.len(),
            med(&answer),
            med(&first),
            med(&reference),
            med(&ratio),
            med(&first_ratio),
        );
    }
}

struct Traced {
    attempted: u64,
    failed: u64,
    wall_ms: f64,
    metrics: Vec<Metric>,
}

/// Re-executes every (template, scan start) of the measured stream with its
/// spans recorded, checks that the counts repeat exactly, replays each
/// layer on the query's own inputs, and attributes the query's wall time to
/// the layers.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    session: &Session,
    table: &str,
    templates: &[QueryTemplate],
    references: &[Reference],
    issues: &[Issue],
    untraced: &[Execution],
    exact: bool,
    trace: &mut Trace,
) -> Result<Traced, String> {
    let source = session.source(table).map_err(|e| e.to_string())?;
    // The enumeration a grouped approximate query starts with, per template.
    let mut enumerate_ns = vec![0.0; templates.len()];
    if !exact {
        for (t, template) in templates.iter().enumerate() {
            if template.query.is_grouped() {
                enumerate_ns[t] = trace::replay_enumeration(source, &template.query)?;
            }
        }
    }

    let mut failed = 0;
    let mut wall_ms = 0.0;
    let [mut read, mut filter, mut probe, mut update, mut interval] = [Work::default(); 5];
    let (mut prepare_ms, mut read_ms, mut enum_ms, mut grouped) = (0.0, 0.0, 0.0, 0u64);
    let (mut round_ms, mut rounds_timed) = (0.0, 0u64);
    let (mut first_self_ms, mut finalize_ms, mut self_ms) = (0.0, 0.0, 0.0);
    let mut exact_self_ns = 0.0;
    let mut totals = Counts::default();
    let mut converged = 0u64;

    for (q, (issue, before)) in issues.iter().zip(untraced).enumerate() {
        let template = &templates[issue.template];
        let ex = execute(
            session,
            table,
            template,
            &references[issue.template],
            issue,
            exact,
        );
        wall_ms += ex.answer_ms();
        if ex.outcome.is_err() {
            failed += 1;
        } else if ex.counts != before.counts {
            eprintln!(
                "perfbench: {} (pass {}, start block {}) is not deterministic: {:?} then {:?}",
                template.id, issue.pass, issue.start_block, before.counts, ex.counts
            );
            failed += 1;
        }
        let c = ex.counts;
        let r = trace::replay(
            source,
            &template.query,
            issue.start_block,
            c.blocks_fetched,
            exact,
            DELTA,
        )?;

        // Observer-stamped spans.
        let (start, prepared, end) = (trace.ns(ex.start), trace.ns(ex.prepared), trace.ns(ex.end));
        let root = trace.record("query", Some(q), None, start, end);
        trace.record("session.prepare", Some(q), Some(root), start, prepared);
        let stamps: Vec<u64> = ex.snapshots.iter().map(|&s| trace.ns(s)).collect();
        if let Some(&first) = stamps.first() {
            trace.record("engine.first_round", Some(q), Some(root), prepared, first);
        }
        for w in stamps.windows(2) {
            trace.record("engine.round", Some(q), Some(root), w[0], w[1]);
            round_ms += (w[1] - w[0]) as f64 / 1e6;
            rounds_timed += 1;
        }
        if let Some(&last) = stamps.last() {
            trace.record("engine.finalize", Some(q), Some(root), last, end);
            finalize_ms += (end - last) as f64 / 1e6;
        }

        // Replayed layer time, scaled by this query's counts. Per-block work
        // is shared among the scan threads. Exact scans on one thread and
        // calls none of the batch kernels, so only its reads are replayed.
        let enum_q = if exact {
            0.0
        } else {
            enumerate_ns[issue.template]
        };
        let per_thread = |w: Work, units: u64| w.per_unit() * units as f64 / ex.threads as f64;
        let layers = if exact {
            vec![("store.read", r.read.per_unit() * c.blocks_fetched as f64)]
        } else {
            vec![
                ("store.enumerate", enum_q),
                ("store.read", per_thread(r.read, c.blocks_fetched)),
                ("store.filter", per_thread(r.filter, c.rows_decoded)),
                ("core.update", per_thread(r.update, c.rows_sampled)),
                ("store.probe", r.probe.per_unit() * c.index_checks as f64),
                (
                    "core.interval",
                    r.interval.per_unit() * (ex.views as u64 * c.rounds) as f64,
                ),
            ]
        };
        // Replayed spans are laid end to end after prepare; the query's
        // self time is then the wall time that neither prepare nor any
        // replayed layer explains.
        let mut covered = vec![(start, prepared)];
        let mut at = prepared;
        for (name, ns) in layers {
            let (from, to) = (at, at + ns as u64);
            trace.record(name, Some(q), Some(root), from, to);
            covered.push((from, to));
            at = to;
        }
        self_ms += trace::self_time(start, end, &covered) as f64 / 1e6;
        // Enumeration runs before the first snapshot: the first round's own
        // time is what remains of it.
        if let Some(&first) = stamps.first() {
            let enum_span = (prepared, prepared + enum_q as u64);
            first_self_ms += trace::self_time(prepared, first, &[enum_span]) as f64 / 1e6;
        }
        if exact {
            exact_self_ns += trace::self_time(prepared, end, &covered[1..]) as f64
                / c.rows_decoded.max(1) as f64;
        }

        prepare_ms += (prepared - start) as f64 / 1e6;
        read_ms += r.read.per_unit() * c.blocks_fetched as f64 / 1e6;
        if !exact && template.query.is_grouped() {
            enum_ms += enum_q / 1e6;
            grouped += 1;
        }
        read.add(r.read);
        filter.add(r.filter);
        probe.add(r.probe);
        update.add(r.update);
        interval.add(r.interval);
        totals.blocks_fetched += c.blocks_fetched;
        totals.blocks_skipped += c.blocks_skipped;
        totals.rows_decoded += c.rows_decoded;
        totals.rows_selected += c.rows_selected;
        totals.rows_sampled += c.rows_sampled;
        totals.rounds += c.rounds;
        totals.index_checks += c.index_checks;
        converged += ex.converged as u64;
    }

    let n = issues.len().max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let metrics = vec![
        Metric::new("session.prepare_us", prepare_ms * 1e3 / n, "us"),
        Metric::new("store.enumerate_ms", enum_ms / grouped.max(1) as f64, "ms"),
        Metric::new("store.read_ns_per_block", read.per_unit(), "ns"),
        Metric::new("store.read_ms_per_query", read_ms / n, "ms"),
        Metric::new("store.filter_ns_per_row", filter.per_unit(), "ns"),
        Metric::new("store.probe_ns_per_block", probe.per_unit(), "ns"),
        Metric::new("core.update_ns_per_value", update.per_unit(), "ns"),
        Metric::new("core.interval_ns", interval.per_unit(), "ns"),
        Metric::new(
            "engine.round_ms",
            round_ms / rounds_timed.max(1) as f64,
            "ms",
        ),
        // Exact streams no snapshots, so its round, first-round and
        // finalize times are zero.
        Metric::new("engine.first_round_self_ms", first_self_ms / n, "ms"),
        Metric::new("engine.finalize_ms", finalize_ms / n, "ms"),
        Metric::new("engine.self_ms_per_query", self_ms / n, "ms"),
        Metric::new("engine.exact_self_ns_per_row", exact_self_ns / n, "ns"),
        Metric::new("engine.rounds_per_query", totals.rounds as f64 / n, "count"),
        Metric::new(
            "engine.rows_decoded_per_query",
            totals.rows_decoded as f64 / n,
            "count",
        ),
        Metric::new(
            "engine.selected_frac",
            ratio(totals.rows_selected, totals.rows_decoded),
            "ratio",
        ),
        Metric::new(
            "engine.sampled_frac",
            ratio(totals.rows_sampled, totals.rows_decoded),
            "ratio",
        ),
        Metric::new(
            "engine.skip_frac",
            ratio(
                totals.blocks_skipped,
                totals.blocks_fetched + totals.blocks_skipped,
            ),
            "ratio",
        ),
        Metric::new(
            "engine.index_checks_per_query",
            totals.index_checks as f64 / n,
            "count",
        ),
        Metric::new("engine.converged_frac", converged as f64 / n, "ratio"),
    ];
    Ok(Traced {
        attempted: issues.len() as u64,
        failed,
        wall_ms,
        metrics,
    })
}
