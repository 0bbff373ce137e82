//! Workloads and the query stream each one issues, all derived from the
//! workload seed.

/// The benchmark's workloads (see `perfbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// F-q1…F-q9, approximate, on the in-memory scramble.
    Table5Mem,
    /// The same stream on that scramble saved as a segment and reopened.
    Table5Seg,
    /// The same nine templates through the Exact baseline, in memory.
    ExactMem,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Table5Mem, Workload::Table5Seg, Workload::ExactMem];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5Mem => "table5-mem",
            Workload::Table5Seg => "table5-seg",
            Workload::ExactMem => "exact-mem",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_exact(self) -> bool {
        self == Workload::ExactMem
    }

    pub fn on_segment(self) -> bool {
        self == Workload::Table5Seg
    }

    /// Complete passes over the templates per second of `--seconds`. Fixed
    /// per workload, so a run issues the same queries whatever the host's
    /// speed and every count repeats exactly for a seed. Sized so that a run
    /// lasts about `--seconds` on a 2-core host; `table5-seg` gets more
    /// passes than that because its ratios spread most.
    pub fn passes_per_second(self) -> f64 {
        match self {
            Workload::Table5Mem => 0.8,
            Workload::Table5Seg => 1.0,
            Workload::ExactMem => 2.4,
        }
    }

    pub fn passes(self, seconds: u64) -> usize {
        ((seconds as f64 * self.passes_per_second()).round() as usize).max(1)
    }
}

/// SplitMix64: a tiny, fixed generator, so the stream does not depend on any
/// library's random-number algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seed of the generated Flights dataset and of its scramble.
pub fn data_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0xDA7A_5EED).next_u64()
}

/// One query of the stream: a template and the block its scan starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    pub pass: usize,
    pub template: usize,
    pub start_block: usize,
}

/// `passes` round-robin passes over `templates` templates, each query with
/// its own scan start drawn from the seed (paper §5.2: every approximate
/// query starts at a random position in the shuffled data). `salt` keeps
/// the warm-up stream apart from the measured one.
pub fn query_stream(
    seed: u64,
    salt: u64,
    passes: usize,
    templates: usize,
    num_blocks: usize,
) -> Vec<Issue> {
    let mut rng = SplitMix64::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut out = Vec::with_capacity(passes * templates);
    for pass in 0..passes {
        for template in 0..templates {
            out.push(Issue {
                pass,
                template,
                start_block: (rng.next_u64() % num_blocks.max(1) as u64) as usize,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let a = query_stream(7, 1, 3, 9, 40_000);
        let b = query_stream(7, 1, 3, 9, 40_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 27);
        assert_eq!(data_seed(7), data_seed(7));
    }

    #[test]
    fn stream_is_round_robin_and_seed_dependent() {
        let a = query_stream(7, 1, 2, 9, 40_000);
        let templates: Vec<usize> = a.iter().map(|i| i.template).collect();
        assert_eq!(
            templates,
            [(0..9).collect::<Vec<_>>(), (0..9).collect()].concat()
        );
        assert!(a.iter().all(|i| i.start_block < 40_000));
        assert_ne!(a, query_stream(8, 1, 2, 9, 40_000));
        assert_ne!(a, query_stream(7, 2, 2, 9, 40_000));
        assert_ne!(data_seed(7), data_seed(8));
    }

    #[test]
    fn passes_scale_with_seconds() {
        assert_eq!(Workload::Table5Mem.passes(10), 8);
        assert_eq!(Workload::ExactMem.passes(10), 24);
        assert_eq!(Workload::Table5Seg.passes(10), 10);
        assert_eq!(Workload::Table5Seg.passes(0), 1);
    }
}
