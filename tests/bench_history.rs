//! `BENCH_history.jsonl` is the repository's perf trajectory as a file:
//! one JSON line per PR, written from that PR's ten alternating
//! parent/change pairs of the benchmark `BENCHMARK.json` declares —
//!
//! ```text
//! {"pr": 18, "commit": "<parent commit the pairs were built against>",
//!  "workloads": {"<workload>": {"<end-to-end metric>": {"parent": <median>, "change": <median>}, …}, …}}
//! ```
//!
//! (`commit` is the parent's: a commit cannot name itself.) This test keeps
//! the file honest against the benchmark it quotes: every line parses, and
//! names exactly `BENCHMARK.json`'s workloads and end-to-end metrics — so a
//! renamed metric, a dropped workload or a hand-edited line fails tier-1
//! instead of silently forking the history.

use std::collections::BTreeMap;

/// Just enough JSON for the two files — objects, arrays, strings, numbers
/// — since the workspace has no serde, by rule.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src: src.as_bytes(), at: 0 };
        let v = p.value()?;
        p.space();
        if p.at == p.src.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", p.at))
        }
    }

    fn space(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    /// After an opening bracket: is the container closed, or — past the
    /// first element — continued by a comma?
    fn more(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.space();
        if self.src.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(false);
        }
        if !first {
            self.eat(b',')?;
        }
        Ok(true)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.src.get(self.at).copied() {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                while self.more(b'}', map.is_empty())? {
                    let key = self.string()?;
                    self.eat(b':')?;
                    if map.insert(key.clone(), self.value()?).is_some() {
                        return Err(format!("duplicate key {key}"));
                    }
                }
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                while self.more(b']', items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.at;
                let numeric = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
                while self.src.get(self.at).is_some_and(numeric) {
                    self.at += 1;
                }
                let num = std::str::from_utf8(&self.src[start..self.at]).expect("ascii");
                num.parse().map(Json::Num).map_err(|e| format!("{num:?} at byte {start}: {e}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without escapes other than `\"` and `\\` — all either file
    /// uses.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.at).copied() {
                Some(b'"') => break,
                Some(b'\\') if matches!(self.src.get(self.at + 1), Some(b'"' | b'\\')) => {
                    out.push(self.src[self.at + 1]);
                    self.at += 2;
                }
                Some(b'\\') => return Err(format!("unsupported escape at byte {}", self.at)),
                Some(b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

impl Json {
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("expected an object, found {other:?}"),
        }
    }

    /// The `name` of every object in the array under `key`, sorted.
    fn names_under(&self, key: &str) -> Vec<String> {
        let Json::Arr(items) = &self.obj()[key] else { panic!("{key} is not an array") };
        let mut names: Vec<String> = items
            .iter()
            .map(|item| match &item.obj()["name"] {
                Json::Str(s) => s.clone(),
                other => panic!("{key}: name is {other:?}"),
            })
            .collect();
        names.sort();
        names
    }
}

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_history_line_names_exactly_the_benchmarks_workloads_and_metrics() {
    let benchmark = Parser::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = benchmark.names_under("workloads");
    let metrics = benchmark.names_under("end_to_end");
    assert!(!workloads.is_empty() && !metrics.is_empty());

    let history = read("BENCH_history.jsonl");
    let lines: Vec<&str> = history.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "the history starts with the PR that created it");
    let mut prs = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let at = format!("BENCH_history.jsonl line {}", n + 1);
        let entry = Parser::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let entry = entry.obj();
        match entry.get("pr") {
            Some(Json::Num(pr)) if *pr >= 1.0 && pr.fract() == 0.0 => prs.push(*pr as u64),
            other => panic!("{at}: pr is {other:?}"),
        }
        assert!(
            matches!(entry.get("commit"), Some(Json::Str(c)) if c.len() >= 7
                && c.bytes().all(|b| b.is_ascii_hexdigit())),
            "{at}: commit is {:?}",
            entry.get("commit")
        );
        let per_workload = entry.get("workloads").unwrap_or_else(|| panic!("{at}: no workloads"));
        let named: Vec<&String> = per_workload.obj().keys().collect();
        assert_eq!(named, workloads.iter().collect::<Vec<_>>(), "{at}: workloads");
        for (workload, readings) in per_workload.obj() {
            let named: Vec<&String> = readings.obj().keys().collect();
            assert_eq!(named, metrics.iter().collect::<Vec<_>>(), "{at}: {workload}");
            for (metric, sides) in readings.obj() {
                let sides = sides.obj();
                assert_eq!(sides.len(), 2, "{at}: {workload}.{metric} has {:?}", sides.keys());
                for side in ["parent", "change"] {
                    assert!(
                        matches!(sides.get(side), Some(Json::Num(v)) if v.is_finite() && *v > 0.0),
                        "{at}: {workload}.{metric}.{side} is {:?}",
                        sides.get(side)
                    );
                }
            }
        }
    }
    assert!(prs.windows(2).all(|w| w[0] < w[1]), "one line per PR, in PR order: {prs:?}");
}

#[test]
fn the_parser_refuses_what_it_does_not_read() {
    for bad in
        ["{\"a\": 1,}", "{\"a\": 1} x", "{\"a\": 1, \"a\": 2}", "[1 2]", "{\"a\": tru}", "\"\\n\""]
    {
        assert!(Parser::parse(bad).is_err(), "{bad}");
    }
    let ok = Parser::parse("{\"a\": [1, -2.5e3, \"x\\\"y\"], \"b\": {}}").unwrap();
    assert_eq!(
        ok.obj()["a"],
        Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Str("x\"y".into())])
    );
    assert_eq!(ok.obj()["b"], Json::Obj(BTreeMap::new()));
}
