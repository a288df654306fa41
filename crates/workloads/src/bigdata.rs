//! The Big Data benchmark tables (Appendix B), at configurable scale.
//!
//! * **Rankings** — `pageURL, pageRank, avgDuration`; ~90M rows in the
//!   paper, *roughly sorted on pageRank* (which is why the paper runs the
//!   filtering/skyline queries on a random permutation — nearly-sorted
//!   streams defeat threshold pruning, see the footnotes to queries 1/3).
//! * **UserVisits** — nine columns including `sourceIP, destURL,
//!   visitDate, adRevenue, userAgent, countryCode, languageCode,
//!   searchWord, duration`; 775M rows in the paper. `userAgent` and
//!   `languageCode` are zipfian, `adRevenue` is heavy-tailed, and
//!   `destURL` draws from the Rankings URLs so the join (query 6) has
//!   realistic selectivity.

use crate::zipf::Zipf;
use cheetah_db::{DataType, DbPredicate, DbQuery, IntCmp, Table, TableBuilder, Value};
use cheetah_switch::hash::mix64;

/// Rankings schema: column name / type pairs, in order.
pub const RANKINGS_SCHEMA: [(&str, DataType); 3] =
    [("pageURL", DataType::Str), ("pageRank", DataType::Int), ("avgDuration", DataType::Int)];

/// UserVisits schema: column name / type pairs, in order.
pub const USERVISITS_SCHEMA: [(&str, DataType); 9] = [
    ("sourceIP", DataType::Str),
    ("destURL", DataType::Str),
    ("visitDate", DataType::Int),
    ("adRevenue", DataType::Int),
    ("userAgent", DataType::Str),
    ("countryCode", DataType::Str),
    ("languageCode", DataType::Str),
    ("searchWord", DataType::Str),
    ("duration", DataType::Int),
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct BigDataConfig {
    /// Rows in Rankings.
    pub rankings_rows: usize,
    /// Rows in UserVisits.
    pub uservisits_rows: usize,
    /// Partitions per table (≈ workers).
    pub partitions: usize,
    /// Distinct user agents (the DISTINCT query's output size).
    pub user_agents: usize,
    /// Distinct language codes.
    pub languages: usize,
    /// Shuffle Rankings (the paper permutes the nearly-sorted table for
    /// the filtering and skyline queries).
    pub permute_rankings: bool,
    /// Size of the URL universe `destURL` draws from. Defaults to
    /// `rankings_rows` (every visit hits a ranked page, ~100% join match);
    /// set it larger to control the join selectivity — the paper took 10%
    /// subsets for the join query because of the 100% match rate.
    pub url_universe: Option<usize>,
    /// Seed.
    pub seed: u64,
}

impl Default for BigDataConfig {
    fn default() -> Self {
        Self {
            rankings_rows: 100_000,
            uservisits_rows: 200_000,
            partitions: 5,
            user_agents: 500,
            languages: 40,
            permute_rankings: true,
            url_universe: None,
            seed: 0xB16_DA7A,
        }
    }
}

impl BigDataConfig {
    /// Column indices commonly used by the benchmark queries.
    pub const RANKINGS_PAGE_URL: usize = 0;
    /// `pageRank` column index in Rankings.
    pub const RANKINGS_PAGE_RANK: usize = 1;
    /// `avgDuration` column index in Rankings.
    pub const RANKINGS_AVG_DURATION: usize = 2;
    /// `destURL` column index in UserVisits.
    pub const UV_DEST_URL: usize = 1;
    /// `adRevenue` column index in UserVisits.
    pub const UV_AD_REVENUE: usize = 3;
    /// `userAgent` column index in UserVisits.
    pub const UV_USER_AGENT: usize = 4;
    /// `languageCode` column index in UserVisits.
    pub const UV_LANGUAGE: usize = 6;

    /// The benchmark's seven queries (Appendix B) in the paper's order,
    /// each as `(query, left, right)`: the table it scans and, for the
    /// join, the table it probes. `rankings` and `uservisits` are this
    /// configuration's two tables, as `Table`s or handles to them. The
    /// HAVING threshold is `uservisits_rows × 400`, so only the head of
    /// the zipfian languages qualifies (the paper's query asks for more
    /// than $1M of revenue).
    pub fn queries<'t, T>(
        &self,
        rankings: &'t T,
        uservisits: &'t T,
    ) -> [(DbQuery, &'t T, Option<&'t T>); 7] {
        let filter =
            DbPredicate::CmpInt { col: Self::RANKINGS_AVG_DURATION, op: IntCmp::Lt, lit: 10 };
        [
            (DbQuery::FilterCount { pred: filter }, rankings, None),
            (DbQuery::Distinct { col: Self::UV_USER_AGENT }, uservisits, None),
            (
                DbQuery::Skyline {
                    cols: vec![Self::RANKINGS_PAGE_RANK, Self::RANKINGS_AVG_DURATION],
                },
                rankings,
                None,
            ),
            (DbQuery::TopN { order_col: Self::UV_AD_REVENUE, n: 250 }, uservisits, None),
            (
                DbQuery::GroupByMax { key_col: Self::UV_USER_AGENT, val_col: Self::UV_AD_REVENUE },
                uservisits,
                None,
            ),
            (
                DbQuery::Join { left_key: Self::UV_DEST_URL, right_key: Self::RANKINGS_PAGE_URL },
                uservisits,
                Some(rankings),
            ),
            (
                DbQuery::HavingSum {
                    key_col: Self::UV_LANGUAGE,
                    val_col: Self::UV_AD_REVENUE,
                    threshold: self.uservisits_rows as i64 * 400,
                },
                uservisits,
                None,
            ),
        ]
    }

    /// Generate the Rankings table.
    pub fn rankings(&self) -> Table {
        let n = self.rankings_rows;
        let mut rows: Vec<(String, i64, i64)> = Vec::with_capacity(n);
        let mut x = self.seed ^ 0x4A4E;
        for i in 0..n {
            // Nearly sorted on pageRank: monotone base + small noise.
            x = mix64(x);
            let noise = (x % 21) as i64 - 10;
            let rank = ((i as i64) * 1000 / n.max(1) as i64 + noise).max(0);
            x = mix64(x);
            let duration = (x % 120) as i64 + 1;
            rows.push((format!("url_{i}"), rank, duration));
        }
        if self.permute_rankings {
            // Fisher–Yates with the seeded stream.
            let mut y = self.seed ^ 0x9E37;
            for i in (1..rows.len()).rev() {
                y = mix64(y);
                rows.swap(i, (y % (i as u64 + 1)) as usize);
            }
        }
        let mut b = TableBuilder::new(
            "rankings",
            RANKINGS_SCHEMA.iter().map(|(n, t)| ((*n).to_string(), *t)).collect(),
            n.div_ceil(self.partitions).max(1),
        );
        for (url, rank, duration) in rows {
            b.push_row([Value::Str(url), Value::Int(rank), Value::Int(duration)]);
        }
        b.build()
    }

    /// Generate the UserVisits table.
    pub fn uservisits(&self) -> Table {
        let n = self.uservisits_rows;
        let mut agents = Zipf::new(self.user_agents, 1.2, self.seed ^ 0xA6E17);
        let mut langs = Zipf::new(self.languages, 1.1, self.seed ^ 0x1A46);
        let universe = self.url_universe.unwrap_or(self.rankings_rows).max(1);
        let mut urls = Zipf::new(universe, 0.8, self.seed ^ 0x11C7);
        let mut words = Zipf::new(2_000, 1.0, self.seed ^ 0x50AD);
        let mut b = TableBuilder::new(
            "uservisits",
            USERVISITS_SCHEMA.iter().map(|(n, t)| ((*n).to_string(), *t)).collect(),
            n.div_ceil(self.partitions).max(1),
        );
        // Each repeating value's string is formatted once; a row clones it.
        let names = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|k| format!("{prefix}{k}")).collect()
        };
        let agent_names = names("agent/", agents.universe());
        let country_names = names("C", 60);
        let lang_names = names("lang-", langs.universe());
        let word_names = names("w", words.universe());
        let mut x = self.seed ^ 0x7157;
        for _ in 0..n {
            x = mix64(x);
            let ip = format!(
                "{}.{}.{}.{}",
                x % 223 + 1,
                (x >> 8) % 256,
                (x >> 16) % 256,
                (x >> 24) % 256
            );
            let dest = format!("url_{}", urls.sample());
            x = mix64(x);
            let visit_date = 20_000_000 + (x % 10_000) as i64;
            // Heavy-tailed ad revenue in cents: most visits earn little,
            // a few earn a lot (drives the HAVING query's skew).
            x = mix64(x);
            let base = (x % 1_000) as i64;
            x = mix64(x);
            let revenue = if x % 100 < 2 { base * 500 } else { base };
            let agent = agent_names[agents.sample()].clone();
            x = mix64(x);
            let country = country_names[(x % 60) as usize].clone();
            let lang = lang_names[langs.sample()].clone();
            let word = word_names[words.sample()].clone();
            x = mix64(x);
            let duration = (x % 100) as i64 + 1;
            b.push_row([
                Value::Str(ip),
                Value::Str(dest),
                Value::Int(visit_date),
                Value::Int(revenue),
                Value::Str(agent),
                Value::Str(country),
                Value::Str(lang),
                Value::Str(word),
                Value::Int(duration),
            ]);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> BigDataConfig {
        BigDataConfig {
            rankings_rows: 5_000,
            uservisits_rows: 8_000,
            partitions: 4,
            user_agents: 100,
            languages: 20,
            permute_rankings: true,
            url_universe: None,
            seed: 1,
        }
    }

    #[test]
    fn rankings_shape() {
        let t = small().rankings();
        assert_eq!(t.rows(), 5_000);
        assert_eq!(t.partitions().len(), 4);
        assert_eq!(t.fields().len(), 3);
        assert_eq!(t.fields()[1].0, "pageRank");
    }

    #[test]
    fn rankings_unpermuted_is_nearly_sorted() {
        let mut cfg = small();
        cfg.permute_rankings = false;
        let t = cfg.rankings();
        // Count inversions between consecutive rows: with ±10 noise over a
        // 0..1000 ramp they must be rare and small.
        let mut big_inversions = 0;
        let mut prev = i64::MIN;
        for p in t.partitions() {
            for &r in p.column(1).as_int().unwrap() {
                if r + 25 < prev {
                    big_inversions += 1;
                }
                prev = r;
            }
        }
        assert_eq!(big_inversions, 0, "unpermuted rankings should be nearly sorted");
    }

    #[test]
    fn permutation_destroys_sortedness() {
        let sorted = {
            let mut c = small();
            c.permute_rankings = false;
            c.rankings()
        };
        let permuted = small().rankings();
        // Large drops between consecutive rows: absent when nearly sorted
        // (noise is ±10), everywhere after a permutation.
        let big_drops = |t: &Table| {
            let mut inv = 0u64;
            let mut prev = i64::MIN;
            for p in t.partitions() {
                for &r in p.column(1).as_int().unwrap() {
                    if r + 25 < prev {
                        inv += 1;
                    }
                    prev = r;
                }
            }
            inv
        };
        assert_eq!(big_drops(&sorted), 0);
        assert!(big_drops(&permuted) > 1000);
    }

    #[test]
    fn uservisits_shape_and_skew() {
        let t = small().uservisits();
        assert_eq!(t.rows(), 8_000);
        assert_eq!(t.fields().len(), 9);
        // userAgent column: zipf → far fewer distinct than rows, top agent
        // dominating.
        let mut counts = std::collections::HashMap::new();
        for p in t.partitions() {
            for a in p.column(4).as_str().unwrap() {
                *counts.entry(a.clone()).or_insert(0u64) += 1;
            }
        }
        assert!(counts.len() <= 100);
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max as f64 / 8_000.0 > 0.1, "top agent share too small: {max}");
    }

    #[test]
    fn join_has_matches() {
        let cfg = small();
        let r = cfg.rankings();
        let v = cfg.uservisits();
        let urls: HashSet<&String> =
            r.partitions().iter().flat_map(|p| p.column(0).as_str().unwrap().iter()).collect();
        let matching = v
            .partitions()
            .iter()
            .flat_map(|p| p.column(1).as_str().unwrap().iter())
            .filter(|u| urls.contains(u))
            .count();
        assert!(matching > 7_000, "destURLs should mostly hit rankings: {matching}");
    }

    #[test]
    fn the_seven_queries_read_their_own_tables() {
        let cfg = small();
        let (r, v) = (cfg.rankings(), cfg.uservisits());
        let queries = cfg.queries(&r, &v);
        let kinds: Vec<&str> = queries.iter().map(|(q, ..)| q.kind()).collect();
        assert_eq!(
            kinds,
            ["filter-count", "distinct", "skyline", "topn", "groupby-max", "join", "having-sum"]
        );
        for (q, left, right) in &queries {
            assert!(q.check(left, *right).is_ok(), "{}", q.kind());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small().rankings();
        let b = small().rankings();
        assert_eq!(a, b);
    }

    #[test]
    fn revenue_is_heavy_tailed() {
        let t = small().uservisits();
        let mut revs: Vec<i64> = t
            .partitions()
            .iter()
            .flat_map(|p| p.column(3).as_int().unwrap().iter().copied())
            .collect();
        revs.sort_unstable();
        let p50 = revs[revs.len() / 2];
        let max = *revs.last().unwrap();
        assert!(max > p50 * 50, "p50 {p50}, max {max}");
    }
}
