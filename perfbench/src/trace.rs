//! Spans for the traced run, and the layer replays whose timings they carry.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer: the engine's observer stamps each round, and each
//! layer's public function is replayed on the query's own inputs and scaled
//! by the query's own counts. Spans stay in memory and are written out once,
//! at the end of the run.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fastframe_core::bounder::{BoundContext, BounderKind};
use fastframe_engine::query::AggQuery;
use fastframe_store::block::BlockId;
use fastframe_store::predicate::Predicate;
use fastframe_store::source::{BlockRef, BlockSource};

/// One timed interval, in nanoseconds since the trace's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Query the span belongs to (`None` for set-up spans).
    pub query: Option<usize>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one run, kept in memory.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Writes every span as a tab-separated line:
    /// `id parent query name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tquery\tname\tstart_ns\tend_ns")?;
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.query),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of the interval `[start, end)`: its length minus the union of
/// `children` clipped to it, so overlapping children count once and a
/// child running past its parent cannot make the result negative.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Blocks replayed per query: enough for a steady per-block time, few
/// enough that replay stays a small share of the traced run.
pub const REPLAY_BLOCKS: usize = 1024;

/// Values per `observe_batch` call: the engine makes one call per
/// (block, view), and blocks hold 25 rows.
const UPDATE_BATCH: usize = 25;

/// `interval` calls timed per query replay.
const INTERVAL_CALLS: u64 = 256;

/// Time spent in one layer's replay and the units of work it did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub ns: f64,
    pub units: u64,
}

impl Work {
    pub fn per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns / self.units as f64
        }
    }

    pub fn add(&mut self, other: Work) {
        self.ns += other.ns;
        self.units += other.units;
    }
}

/// One query's layer replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `read_block_projected` (approximate) or `read_block` (Exact), per block.
    pub read: Work,
    /// `BoundPredicate::filter_block`, per row; zero work without a WHERE.
    pub filter: Work,
    /// Bitmap `block_contains_any` and zone-map `block_may_match`, per probe.
    pub probe: Work,
    /// `MeanEstimator::observe_batch`, per value.
    pub update: Work,
    /// `MeanEstimator::interval`, per call.
    pub interval: Work,
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays each layer's public function on the query's own inputs: the
/// `min(blocks, REPLAY_BLOCKS)` blocks from its scan start, its projection,
/// predicate, group columns and target values. `full_blocks` replays what
/// the Exact path calls: whole-block reads, and nothing else.
pub fn replay(
    source: &dyn BlockSource,
    query: &AggQuery,
    start_block: usize,
    blocks: u64,
    full_blocks: bool,
    delta: f64,
) -> Result<Replay, String> {
    let err = |e: fastframe_store::table::StoreError| e.to_string();
    let schema = source.schema();
    let num_blocks = source.num_blocks();
    let ids: Vec<BlockId> = (0..(blocks as usize).min(REPLAY_BLOCKS))
        .map(|i| BlockId((start_block + i) % num_blocks))
        .collect();
    let target = query.target.bind(schema).map_err(err)?;
    let predicate = query.filter.bind(schema).map_err(err)?;
    let group_cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| schema.column_index(g))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mut projection = target.referenced_columns();
    projection.extend(predicate.referenced_columns());
    projection.extend(&group_cols);
    projection.sort_unstable();
    projection.dedup();
    let read = |b: BlockId| -> Result<BlockRef<'_>, String> {
        if full_blocks {
            source.read_block(b).map_err(err)
        } else {
            source
                .read_block_projected(b, Some(&projection))
                .map_err(err)
        }
    };

    let mut out = Replay::default();
    let t = Instant::now();
    for &b in &ids {
        black_box(read(b)?);
    }
    out.read = Work {
        ns: elapsed_ns(t),
        units: ids.len() as u64,
    };
    if full_blocks {
        return Ok(out);
    }

    let refs: Vec<BlockRef<'_>> = ids.iter().map(|&b| read(b)).collect::<Result<_, _>>()?;
    let rows: u64 = refs.iter().map(|r| r.len() as u64).sum();
    let selections: Vec<_> = refs
        .iter()
        .map(|r| predicate.filter_block(r.table(), r.rows()))
        .collect();
    if query.filter != Predicate::True {
        let t = Instant::now();
        for r in &refs {
            black_box(predicate.filter_block(r.table(), r.rows()));
        }
        out.filter = Work {
            ns: elapsed_ns(t),
            units: rows,
        };
    }

    let values: Vec<f64> = refs
        .iter()
        .zip(&selections)
        .flat_map(|(r, sel)| {
            sel.rows()
                .iter()
                .filter_map(|&row| target.evaluate(r.table(), row as usize))
        })
        .collect();
    let mut estimator = BounderKind::BernsteinRangeTrim.make_estimator();
    let t = Instant::now();
    for batch in values.chunks(UPDATE_BATCH) {
        estimator.observe_batch(black_box(batch));
    }
    out.update = Work {
        ns: elapsed_ns(t),
        units: values.len() as u64,
    };

    let (a, b) = query.target.range_bounds(source.catalog()).map_err(err)?;
    let ctx =
        BoundContext::new(a, b, source.num_rows() as u64, delta).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..INTERVAL_CALLS {
        black_box(estimator.interval(black_box(&ctx)));
    }
    out.interval = Work {
        ns: elapsed_ns(t),
        units: INTERVAL_CALLS,
    };

    out.probe = replay_probes(source, query, &ids);
    Ok(out)
}

/// Probes the indexes the planner consults for this query on each replayed
/// block: the predicate's categorical-equality bitmap, its numeric range
/// conjuncts' zone maps, and every code of each GROUP BY column's bitmap.
fn replay_probes(source: &dyn BlockSource, query: &AggQuery, ids: &[BlockId]) -> Work {
    let eq = query
        .filter
        .categorical_equality()
        .and_then(|(col, value)| {
            let code = source.schema().column(col).ok()?.code_of(value)?;
            Some((source.bitmap_index(col)?, [code]))
        });
    let zones: Vec<_> = query
        .filter
        .range_filters()
        .into_iter()
        .filter_map(|(col, f)| source.zone_map(&col).map(|z| (z, f)))
        .collect();
    let groups: Vec<_> = query
        .group_by
        .iter()
        .filter_map(|g| {
            let idx = source.bitmap_index(g)?;
            let codes: Vec<[u32; 1]> = (0..idx.num_values() as u32).map(|c| [c]).collect();
            Some((idx, codes))
        })
        .collect();
    let per_block =
        eq.iter().count() + zones.len() + groups.iter().map(|(_, c)| c.len()).sum::<usize>();
    let t = Instant::now();
    for &b in ids {
        if let Some((idx, code)) = &eq {
            black_box(idx.block_contains_any(code, b));
        }
        for (zone, filter) in &zones {
            black_box(zone.block_may_match(b, *filter));
        }
        for (idx, codes) in &groups {
            for code in codes {
                black_box(idx.block_contains_any(code, b));
            }
        }
    }
    Work {
        ns: elapsed_ns(t),
        units: (per_block * ids.len()) as u64,
    }
}

/// Times `distinct_group_tuples` over the query's GROUP BY columns — the
/// group-universe enumeration every grouped approximate query starts with.
pub fn replay_enumeration(source: &dyn BlockSource, query: &AggQuery) -> Result<f64, String> {
    let cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| source.schema().column_index(g))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    black_box(
        source
            .distinct_group_tuples(&cols)
            .map_err(|e| e.to_string())?,
    );
    Ok(elapsed_ns(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time(0, 100, &[(0, 200)]), 0);
        assert_eq!(self_time(0, 100, &[(150, 200)]), 100);
    }

    #[test]
    fn work_per_unit() {
        let mut w = Work::default();
        assert_eq!(w.per_unit(), 0.0);
        w.add(Work {
            ns: 300.0,
            units: 2,
        });
        w.add(Work {
            ns: 100.0,
            units: 2,
        });
        assert_eq!(w.per_unit(), 100.0);
    }
}
