//! Which string columns of the benchmark's own tables the load rule codes
//! (`TableBuilder::build`: a column is coded iff its sample is at most
//! half distinct). The Big Data verdicts are the ones `CODING_SAMPLE`'s
//! doc states; the skewed tables' key is what the `adhoc_cold` and
//! `tenants_small` shapes group, count and join by.

use cheetah_db::{DataType, Table};
use cheetah_workloads::{BigDataConfig, SkewedTableConfig};

/// `t`'s string columns by name, each with the load rule's verdict.
fn verdicts(t: &Table) -> Vec<(&str, bool)> {
    let fields = t.fields().iter().enumerate();
    let strings = fields.filter(|(_, (_, ty))| *ty == DataType::Str);
    strings.map(|(c, (name, _))| (name.as_str(), t.is_coded(c))).collect()
}

#[test]
fn the_big_data_tables_code_their_repeating_strings_and_leave_urls_and_ips_plain() {
    // Reduced from the benchmark's 600 000 visits, over the same URL
    // universe ratio; the verdicts are the same at full scale.
    let rows = 40_000;
    for seed in [1, 0xB16_DA7A] {
        let bd = BigDataConfig {
            uservisits_rows: rows,
            rankings_rows: rows / 2,
            url_universe: Some(rows * 2),
            seed,
            ..BigDataConfig::default()
        };
        assert_eq!(
            verdicts(&bd.uservisits()),
            [
                ("sourceIP", false),
                ("destURL", false),
                ("userAgent", true),
                ("countryCode", true),
                ("languageCode", true),
                ("searchWord", true),
            ],
            "seed {seed}"
        );
        assert_eq!(verdicts(&bd.rankings()), [("pageURL", false)], "seed {seed}");
    }
}

#[test]
fn the_skewed_key_column_is_coded_at_the_adhoc_and_tenant_shapes() {
    // adhoc_cold's two tables (200 000 and 100 000 rows over 5 000 keys)
    // and a tenants_small table (6 000 rows over 100 keys).
    for (rows, keys) in [(200_000, 5_000), (100_000, 5_000), (6_000, 100)] {
        for seed in [1, 0xAD0C] {
            let t = SkewedTableConfig { rows, keys, seed, ..SkewedTableConfig::default() }.build();
            assert_eq!(verdicts(&t), [("key", true)], "{rows} rows, {keys} keys, seed {seed}");
        }
    }
}
