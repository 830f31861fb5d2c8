//! The read mix, and the benchmark's own way of answering it.
//!
//! [`Query`] says what to ask in benchmark terms; the adapter turns it
//! into the product's filter. [`Query::answer`] answers the same question
//! by a plain scan over the generator's rows, so a product result can be
//! checked without trusting any product code.

use crate::gen::{Row, SplitMix64, MS_PER_DAY, MS_PER_HOUR, MS_PER_MIN};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryKind {
    Point,
    RangeSorted,
    Scan,
    Agg,
    Count,
    Extract,
}

/// One read operation. Times are `captured_ms` bounds, inclusive.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// One model's observations in a 10-minute window: both predicates
    /// are indexed, the planner intersects.
    Point { model: usize, lo: i64, hi: i64 },
    /// The `limit` loudest observations of an hour: index range, then a
    /// sort on an unindexed field.
    RangeSorted { lo: i64, hi: i64, limit: usize },
    /// The first `limit` loud observations with one activity: no usable
    /// index, a scan in `_id` order that stops when full.
    Scan {
        spl_min_tenths: i64,
        activity: usize,
        limit: usize,
    },
    /// Mean level per capture hour over a one-hour window:
    /// range find, then the aggregation pipeline's group stage.
    Agg { lo: i64, hi: i64 },
    /// How many observations of one day had one activity: unindexed, a
    /// full scan that returns a number.
    Count { activity: usize, day: i64 },
    /// A day's localized observations, for assimilation.
    Extract { day: i64 },
}

/// What a query returns, in a form both sides can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `_id`s (row positions), in result order.
    Ids(Vec<u64>),
    /// `(hour, mean spl)` per group, in hour order.
    Groups(Vec<(i64, f64)>),
    Count(usize),
}

impl Answer {
    /// Equality, with a rounding allowance on group means (the product
    /// may sum in another order).
    pub fn agrees_with(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Groups(a), Answer::Groups(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() < 1e-9)
            }
            _ => self == other,
        }
    }
}

impl Query {
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Point { .. } => QueryKind::Point,
            Query::RangeSorted { .. } => QueryKind::RangeSorted,
            Query::Scan { .. } => QueryKind::Scan,
            Query::Agg { .. } => QueryKind::Agg,
            Query::Count { .. } => QueryKind::Count,
            Query::Extract { .. } => QueryKind::Extract,
        }
    }

    /// Answers the query from `rows`, whose positions are the `_id`s the
    /// store assigned when they were inserted in order.
    pub fn answer(&self, rows: &[Row]) -> Answer {
        let ids_where = |keep: &dyn Fn(&Row) -> bool| -> Vec<u64> {
            rows.iter()
                .enumerate()
                .filter(|(_, r)| keep(r))
                .map(|(i, _)| i as u64)
                .collect()
        };
        let captured_in = |r: &Row, lo: i64, hi: i64| (lo..=hi).contains(&r.captured_ms);
        match *self {
            Query::Point { model, lo, hi } => {
                Answer::Ids(ids_where(&|r| r.model == model && captured_in(r, lo, hi)))
            }
            Query::RangeSorted { lo, hi, limit } => {
                let mut ids = ids_where(&|r| captured_in(r, lo, hi));
                // Stable, like the store's sort: ties stay in `_id` order.
                ids.sort_by_key(|&i| std::cmp::Reverse(rows[i as usize].spl_tenths));
                ids.truncate(limit);
                Answer::Ids(ids)
            }
            Query::Scan {
                spl_min_tenths,
                activity,
                limit,
            } => {
                let mut ids =
                    ids_where(&|r| r.spl_tenths >= spl_min_tenths && r.activity == activity);
                ids.truncate(limit);
                Answer::Ids(ids)
            }
            Query::Agg { lo, hi } => {
                let mut sums = [(0.0f64, 0u64); 24];
                for r in rows.iter().filter(|r| captured_in(r, lo, hi)) {
                    let slot = &mut sums[r.hour() as usize];
                    slot.0 += r.spl();
                    slot.1 += 1;
                }
                Answer::Groups(
                    (0..24)
                        .zip(sums)
                        .filter(|(_, (_, n))| *n > 0)
                        .map(|(hour, (sum, n))| (hour, sum / n as f64))
                        .collect(),
                )
            }
            Query::Count { activity, day } => Answer::Count(
                rows.iter()
                    .filter(|r| r.activity == activity && r.day() == day)
                    .count(),
            ),
            Query::Extract { day } => {
                Answer::Ids(ids_where(&|r| r.location.is_some() && r.day() == day))
            }
        }
    }
}

/// Results kept per sorted / scanned query.
const LIMIT: usize = 100;

/// Queries per block of the mix. Every block holds exactly 70 % point,
/// 15 % sorted range, 8 % scan, 5 % aggregate and 2 % count queries in a
/// seeded order, so equal-sized repetitions do equal kinds of work and
/// differ only in their parameters.
pub const BLOCK: usize = 200;
const BLOCK_COUNTS: [(QueryKind, usize); 5] = [
    (QueryKind::Point, 140),
    (QueryKind::RangeSorted, 30),
    (QueryKind::Scan, 16),
    (QueryKind::Agg, 10),
    (QueryKind::Count, 4),
];

/// `blocks` blocks of [`BLOCK`] queries over rows captured between
/// `from_ms` and `to_ms`.
pub fn mix(
    rng: &mut SplitMix64,
    blocks: usize,
    from_ms: i64,
    to_ms: i64,
    models: usize,
    activities: usize,
) -> Vec<Query> {
    let mut queries = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut kinds: Vec<QueryKind> = BLOCK_COUNTS
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        // Fisher–Yates.
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        queries.extend(kinds.into_iter().map(|kind| {
            let lo = rng.between(from_ms, to_ms - MS_PER_HOUR);
            match kind {
                QueryKind::Point => Query::Point {
                    model: rng.below(models as u64) as usize,
                    lo,
                    hi: lo + 10 * MS_PER_MIN,
                },
                QueryKind::RangeSorted => Query::RangeSorted {
                    lo,
                    hi: lo + MS_PER_HOUR,
                    limit: LIMIT,
                },
                QueryKind::Scan => Query::Scan {
                    spl_min_tenths: rng.between(750, 880),
                    activity: rng.below(activities as u64) as usize,
                    limit: LIMIT,
                },
                QueryKind::Agg => Query::Agg {
                    lo,
                    hi: lo + MS_PER_HOUR,
                },
                QueryKind::Count | QueryKind::Extract => Query::Count {
                    activity: rng.below(activities as u64) as usize,
                    day: lo.div_euclid(MS_PER_DAY),
                },
            }
        }));
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_spl, rows};

    #[test]
    fn every_block_of_the_mix_has_the_stated_shares() {
        let queries = mix(&mut SplitMix64::new(5), 7, 0, 10 * MS_PER_HOUR, 20, 7);
        assert_eq!(queries.len(), 7 * BLOCK);
        for block in queries.chunks(BLOCK) {
            let count = |k: QueryKind| block.iter().filter(|q| q.kind() == k).count();
            assert_eq!(count(QueryKind::Point), 140);
            assert_eq!(count(QueryKind::RangeSorted), 30);
            assert_eq!(count(QueryKind::Scan), 16);
            assert_eq!(count(QueryKind::Agg), 10);
            assert_eq!(count(QueryKind::Count), 4);
        }
        assert_ne!(
            queries[..BLOCK].iter().map(Query::kind).collect::<Vec<_>>(),
            queries[BLOCK..2 * BLOCK]
                .iter()
                .map(Query::kind)
                .collect::<Vec<_>>(),
            "blocks are shuffled independently"
        );
    }

    #[test]
    fn sorted_answer_is_loudest_first_with_ties_in_id_order() {
        let vocab = crate::adapter::vocabulary();
        let rows = rows(
            &mut SplitMix64::new(2),
            &vocab,
            5_000,
            MS_PER_HOUR,
            1_000,
            random_spl,
        );
        let q = Query::RangeSorted {
            lo: 0,
            hi: i64::MAX,
            limit: 50,
        };
        let Answer::Ids(ids) = q.answer(&rows) else {
            panic!("ids expected")
        };
        assert_eq!(ids.len(), 50);
        for pair in ids.windows(2) {
            let (a, b) = (&rows[pair[0] as usize], &rows[pair[1] as usize]);
            assert!(
                a.spl_tenths > b.spl_tenths || (a.spl_tenths == b.spl_tenths && pair[0] < pair[1])
            );
        }
    }
}
