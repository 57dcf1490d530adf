//! The seeded open-loop operation schedule.
//!
//! Arrivals are evenly spaced at the stated rates (a steadier median than
//! Poisson gaps at these sample counts); the seed picks who asks about
//! whom. Every fifth read is a top-k, the rest are point queries — the
//! 4 : 1 mix of the workload tables.

/// SplitMix64: the benchmark's own generator, so a change to the
/// system's RNG cannot silently change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is immaterial at these ranges).
    pub fn below(&mut self, n: usize) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Trust {
        i: u32,
        j: u32,
    },
    TopK {
        user: u32,
    },
    /// Ingest the tail event with this index, then read until visible.
    Write {
        event: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Microseconds after the phase starts.
    pub due_us: u64,
    pub kind: OpKind,
}

/// Rates and extent of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub reads_per_s: f64,
    pub writes_per_s: f64,
    pub seconds: f64,
}

/// Builds the merged schedule, ascending by due time. Writes take tail
/// events in log order (a rating must follow its review) and sit half a
/// period off the read grid so the two never tie.
pub fn build(seed: u64, users: usize, mix: &Mix) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let reads = (mix.reads_per_s * mix.seconds) as u64;
    for k in 0..reads {
        let kind = if k % 5 == 4 {
            OpKind::TopK {
                user: rng.below(users),
            }
        } else {
            OpKind::Trust {
                i: rng.below(users),
                j: rng.below(users),
            }
        };
        ops.push(Op {
            due_us: (k as f64 * 1e6 / mix.reads_per_s) as u64,
            kind,
        });
    }
    let writes = (mix.writes_per_s * mix.seconds) as u64;
    for k in 0..writes {
        ops.push(Op {
            due_us: ((k as f64 + 0.5) * 1e6 / mix.writes_per_s) as u64,
            kind: OpKind::Write { event: k as u32 },
        });
    }
    ops.sort_by_key(|op| op.due_us);
    ops
}

/// Number of write ops in a schedule.
pub fn writes(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|op| matches!(op.kind, OpKind::Write { .. }))
        .count()
}

/// FNV-1a over the schedule's bytes: equal seeds must give equal digests.
pub fn digest(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        eat(op.due_us);
        match op.kind {
            OpKind::Trust { i, j } => {
                eat(0);
                eat(u64::from(i) << 32 | u64::from(j));
            }
            OpKind::TopK { user } => {
                eat(1);
                eat(u64::from(user));
            }
            OpKind::Write { event } => {
                eat(2);
                eat(u64::from(event));
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        reads_per_s: 400.0,
        writes_per_s: 100.0,
        seconds: 2.0,
    };

    #[test]
    fn equal_seeds_give_identical_schedules() {
        let a = build(42, 4000, &MIX);
        let b = build(42, 4000, &MIX);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(42, 4000, &MIX);
        let b = build(43, 4000, &MIX);
        assert_ne!(a, b);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn mix_rates_and_order() {
        let ops = build(1, 4000, &MIX);
        assert_eq!(ops.len(), 800 + 200);
        assert_eq!(writes(&ops), 200);
        let topk = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::TopK { .. }))
            .count();
        assert_eq!(topk, 160);
        assert!(ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        // Writes consume tail events in order.
        let evs: Vec<u32> = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { event } => Some(event),
                _ => None,
            })
            .collect();
        assert_eq!(evs, (0..200).collect::<Vec<u32>>());
        assert!(ops.iter().all(|o| o.due_us < 2_000_000));
    }
}
