//! Raw measurement records and campaign CSV round-trip.
//!
//! "We avoid doing any on-the-fly aggregation and keep all information,
//! delaying the analysis" (paper §V). A [`Campaign`] therefore holds one
//! [`RawRecord`] per measurement — value, factor levels, replicate index,
//! global sequence number, and virtual timestamp — plus the environment
//! metadata block. The CSV layout mirrors the companion repositories'
//! output files: `# key: value` metadata comments, a header, one row per
//! measurement.

use crate::decimal::RowBuf;
use charm_design::factors::{Level, Levels};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

/// One raw measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRecord {
    /// Factor levels, ordered as in [`Campaign::factor_names`]. The
    /// engine copies the plan row's shared tuple here (DESIGN.md §18):
    /// every replicate of a combination points at one tuple, so cloning
    /// a record never deep-copies levels.
    pub levels: Levels,
    /// Replicate index within the factor combination.
    pub replicate: u32,
    /// Global 0-based sequence number (the order the engine took the
    /// measurement in — the x axis of the Figure 11 right plot).
    pub sequence: u64,
    /// Virtual time at which the measurement started (µs).
    pub start_us: f64,
    /// The measured value (unit in metadata `value_unit`).
    pub value: f64,
}

impl RawRecord {
    /// The record's CSV data row, exactly as [`Campaign::to_csv`] writes
    /// it (levels in order, then the fixed columns, `{}`-formatted
    /// floats). Streaming consumers — the campaign service — render rows
    /// through this so an incrementally streamed campaign is
    /// byte-identical to the archived `records.csv`.
    pub fn csv_row(&self) -> String {
        let mut out = String::new();
        self.write_csv_row(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Writes the CSV data row into `out` without intermediate
    /// allocations — the hot serialization path. [`write_csv`] calls
    /// this with one reused buffer across its row loop; the bytes
    /// written are exactly [`RawRecord::csv_row`]'s.
    ///
    /// The row is gathered in a stack buffer and reaches `out` in one
    /// `write_str`. Text is copied, integers go through a digit loop
    /// and floats through the shortest round-trip writer in `decimal`,
    /// which writes exactly the bytes `{}` does; only ±0, subnormals,
    /// NaN, ±inf and layouts over 40 bytes still take `core::fmt`.
    pub fn write_csv_row(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let mut row = RowBuf::new(out);
        for l in &self.levels {
            match l {
                Level::Int(v) => row.i64(*v)?,
                Level::Float(v) => row.f64(*v)?,
                Level::Text(s) => row.write_str(s)?,
                Level::Flag(b) => row.write_str(if *b { "true" } else { "false" })?,
            }
            row.byte(b',')?;
        }
        row.u64(self.replicate.into())?;
        row.byte(b',')?;
        row.u64(self.sequence)?;
        row.byte(b',')?;
        row.f64(self.start_us)?;
        row.byte(b',')?;
        row.f64(self.value)?;
        row.finish()
    }
}

/// Errors when parsing a campaign from CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignParseError {
    /// No header line found.
    MissingHeader,
    /// Header lacks the fixed trailing columns.
    BadHeader(String),
    /// A data row could not be parsed.
    BadRow(String),
}

impl fmt::Display for CampaignParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignParseError::MissingHeader => write!(f, "missing header"),
            CampaignParseError::BadHeader(h) => write!(f, "bad header {h:?}"),
            CampaignParseError::BadRow(r) => write!(f, "bad row {r:?}"),
        }
    }
}

impl std::error::Error for CampaignParseError {}

const FIXED_COLS: [&str; 4] = ["replicate", "sequence", "start_us", "value"];

/// The campaign CSV header line (no trailing newline) for the given
/// factor names: the factor columns followed by the fixed columns,
/// exactly as [`write_csv`] writes it. Streaming consumers send it as
/// the column line ahead of rows rendered by [`RawRecord::write_csv_row`].
pub fn csv_header(factor_names: &[String]) -> String {
    let mut out = String::new();
    out.push_str(&factor_names.join(","));
    if !factor_names.is_empty() {
        out.push(',');
    }
    out.push_str(&FIXED_COLS.join(","));
    out
}

/// Writes one `# key: value` line per metadata entry into `out`: the
/// head of the campaign-CSV layout, as [`write_csv`] renders it.
pub fn write_metadata<K: fmt::Display, V: fmt::Display>(
    out: &mut String,
    metadata: impl IntoIterator<Item = (K, V)>,
) {
    for (k, v) in metadata {
        writeln!(out, "# {k}: {v}").expect("writing to a String cannot fail");
    }
}

/// Renders the campaign-CSV layout — the `# key: value` lines, the
/// header, one row per record — for [`Campaign::to_csv`] and the
/// store's `records.csv` and checkpoint segments alike. The text
/// reaches `emit` in whole lines, a chunk as soon as it holds `chunk`
/// bytes or more and the rest at the end (all at once for
/// `usize::MAX`); rendering stops early once `emit` returns `false`.
pub fn write_csv<K: fmt::Display, V: fmt::Display>(
    metadata: impl IntoIterator<Item = (K, V)>,
    factor_names: &[String],
    records: &[RawRecord],
    chunk: usize,
    mut emit: impl FnMut(String) -> bool,
) {
    // Bounded chunks start at their final size; an unbounded one grows.
    let fresh = || String::with_capacity(chunk.checked_add(256).unwrap_or(0));
    let mut buf = fresh();
    write_metadata(&mut buf, metadata);
    buf.push_str(&csv_header(factor_names));
    buf.push('\n');
    for r in records {
        if buf.len() >= chunk && !emit(std::mem::replace(&mut buf, fresh())) {
            return;
        }
        r.write_csv_row(&mut buf).expect("writing to a String cannot fail");
        buf.push('\n');
    }
    emit(buf);
}

/// A complete campaign: metadata + raw records.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Environment metadata (sorted map, reproducibility artifact).
    pub metadata: BTreeMap<String, String>,
    /// Factor names in column order.
    pub factor_names: Vec<String>,
    /// Raw records in measurement order.
    pub records: Vec<RawRecord>,
}

impl Campaign {
    /// Values of all records, in measurement order.
    pub fn values(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.value).collect()
    }

    /// Index of a factor by name.
    pub fn factor_index(&self, name: &str) -> Option<usize> {
        self.factor_names.iter().position(|n| n == name)
    }

    /// Groups record values by the levels of the given factors, keyed by
    /// the rendered level tuple. Order of groups follows first appearance.
    ///
    /// Keys are built once per *distinct tuple*, not once per record:
    /// records sharing a [`Levels`] allocation (every replicate of a
    /// combination the engine runs) resolve their group through a
    /// shared-id memo, so the per-record cost is a pointer lookup
    /// instead of a `Vec<Level>` clone plus a linear key scan. Equal
    /// levels held in separate tuples (a factor listing a level twice,
    /// records built by hand) still land in one group — the memo is a
    /// fast path over content equality, never a substitute for it.
    pub fn group_by(&self, factors: &[&str]) -> Vec<(Vec<Level>, Vec<f64>)> {
        let idxs: Vec<usize> = factors.iter().filter_map(|f| self.factor_index(f)).collect();
        let mut order: Vec<Vec<Level>> = Vec::new();
        let mut groups: Vec<Vec<f64>> = Vec::new();
        let mut by_cell: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut last: Option<(usize, usize)> = None;
        for rec in &self.records {
            let cell = rec.levels.shared_id();
            let pos = match last {
                Some((c, pos)) if c == cell => pos,
                _ => match by_cell.get(&cell) {
                    Some(&pos) => pos,
                    None => {
                        let key: Vec<Level> = idxs.iter().map(|&i| rec.levels[i].clone()).collect();
                        let pos = match order.iter().position(|k| *k == key) {
                            Some(pos) => pos,
                            None => {
                                order.push(key);
                                groups.push(Vec::new());
                                order.len() - 1
                            }
                        };
                        by_cell.insert(cell, pos);
                        pos
                    }
                },
            };
            last = Some((cell, pos));
            groups[pos].push(rec.value);
        }
        order.into_iter().zip(groups).collect()
    }

    /// Paired `(x, value)` vectors for a numeric factor — the input shape
    /// of the regression stages.
    pub fn paired(&self, factor: &str) -> Option<(Vec<f64>, Vec<f64>)> {
        let idx = self.factor_index(factor)?;
        let mut xs = Vec::with_capacity(self.records.len());
        let mut ys = Vec::with_capacity(self.records.len());
        for rec in &self.records {
            xs.push(rec.levels[idx].as_float()?);
            ys.push(rec.value);
        }
        Some((xs, ys))
    }

    /// Retains only records matching a predicate on a factor's level
    /// (non-destructive filter).
    pub fn filtered<F>(&self, factor: &str, keep: F) -> Campaign
    where
        F: Fn(&Level) -> bool,
    {
        let idx = match self.factor_index(factor) {
            Some(i) => i,
            None => return self.clone(),
        };
        Campaign {
            metadata: self.metadata.clone(),
            factor_names: self.factor_names.clone(),
            records: self.records.iter().filter(|r| keep(&r.levels[idx])).cloned().collect(),
        }
    }

    /// Serializes the campaign to CSV with metadata comments (see
    /// [`write_csv`]). The row loop writes into one output buffer via
    /// [`RawRecord::write_csv_row`] — no per-row `String`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        write_csv(&self.metadata, &self.factor_names, &self.records, usize::MAX, |all| {
            out = all;
            true
        });
        out
    }

    /// Parses a campaign back from its CSV representation.
    ///
    /// Each row splits off only its four fixed columns (from the right);
    /// the factor fields before them are parsed once per distinct field
    /// text and interned, so every record of a design cell shares one
    /// [`Levels`] (DESIGN.md §18), consecutive rows or not. A row
    /// with the wrong field count or a non-numeric fixed column is a
    /// [`CampaignParseError::BadRow`] naming the line.
    pub fn from_csv(text: &str) -> Result<Self, CampaignParseError> {
        let mut metadata = BTreeMap::new();
        let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
        while let Some(line) = lines.peek() {
            if let Some(rest) = line.strip_prefix('#') {
                if let Some((k, v)) = rest.split_once(':') {
                    metadata.insert(k.trim().to_string(), v.trim().to_string());
                }
                lines.next();
            } else {
                break;
            }
        }
        let header = lines.next().ok_or(CampaignParseError::MissingHeader)?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        if cols.len() < FIXED_COLS.len() || cols[cols.len() - FIXED_COLS.len()..] != FIXED_COLS {
            return Err(CampaignParseError::BadHeader(header.to_string()));
        }
        let n_factors = cols.len() - FIXED_COLS.len();
        let factor_names: Vec<String> = cols[..n_factors].iter().map(|s| s.to_string()).collect();

        let mut records: Vec<RawRecord> = Vec::new();
        // Keyed by the untrimmed factor-field text: `Level::parse` of the
        // trimmed fields is deterministic, so equal text is an equal tuple.
        let mut interned: HashMap<&str, Levels> = HashMap::new();
        for line in lines {
            let bad_row = || CampaignParseError::BadRow(line.to_string());
            let mut fixed = line.rsplitn(FIXED_COLS.len() + 1, ',');
            let value = fixed.next().ok_or_else(bad_row)?.trim();
            let start_us = fixed.next().ok_or_else(bad_row)?.trim();
            let sequence = fixed.next().ok_or_else(bad_row)?.trim();
            let replicate = fixed.next().ok_or_else(bad_row)?.trim();
            let cell = match (fixed.next(), n_factors) {
                (None, 0) => "",
                (Some(cell), n) if n > 0 && cell.matches(',').count() + 1 == n => cell,
                _ => return Err(bad_row()),
            };
            let levels = match interned.get(cell) {
                Some(levels) => levels.clone(),
                None => {
                    let fresh: Levels =
                        cell.split(',').take(n_factors).map(|f| Level::parse(f.trim())).collect();
                    interned.insert(cell, fresh.clone());
                    fresh
                }
            };
            records.push(RawRecord {
                levels,
                replicate: replicate.parse().map_err(|_| bad_row())?,
                sequence: sequence.parse().map_err(|_| bad_row())?,
                start_us: start_us.parse().map_err(|_| bad_row())?,
                value: value.parse().map_err(|_| bad_row())?,
            });
        }
        Ok(Campaign { metadata, factor_names, records })
    }
}

/// The field-by-field parser the cell-interning [`Campaign::from_csv`]
/// replaced, kept as its oracle: every row split into a `Vec<&str>`,
/// every factor field parsed, consecutive duplicate tuples shared.
#[cfg(test)]
mod reference {
    use super::{Campaign, CampaignParseError, RawRecord, FIXED_COLS};
    use charm_design::factors::{Level, Levels};
    use std::collections::BTreeMap;

    pub fn from_csv(text: &str) -> Result<Campaign, CampaignParseError> {
        let mut metadata = BTreeMap::new();
        let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
        while let Some(line) = lines.peek() {
            if let Some(rest) = line.strip_prefix('#') {
                if let Some((k, v)) = rest.split_once(':') {
                    metadata.insert(k.trim().to_string(), v.trim().to_string());
                }
                lines.next();
            } else {
                break;
            }
        }
        let header = lines.next().ok_or(CampaignParseError::MissingHeader)?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        if cols.len() < FIXED_COLS.len() || cols[cols.len() - FIXED_COLS.len()..] != FIXED_COLS {
            return Err(CampaignParseError::BadHeader(header.to_string()));
        }
        let n_factors = cols.len() - FIXED_COLS.len();
        let factor_names: Vec<String> = cols[..n_factors].iter().map(|s| s.to_string()).collect();

        let mut records: Vec<RawRecord> = Vec::new();
        let mut last: Option<Levels> = None;
        for line in lines {
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != cols.len() {
                return Err(CampaignParseError::BadRow(line.to_string()));
            }
            let parsed: Vec<Level> = fields[..n_factors].iter().map(|s| Level::parse(s)).collect();
            let levels = match &last {
                Some(prev) if *prev == parsed => prev.clone(),
                _ => {
                    let fresh: Levels = parsed.into();
                    last = Some(fresh.clone());
                    fresh
                }
            };
            let parse_err = || CampaignParseError::BadRow(line.to_string());
            let replicate = fields[n_factors].parse().map_err(|_| parse_err())?;
            let sequence = fields[n_factors + 1].parse().map_err(|_| parse_err())?;
            let start_us = fields[n_factors + 2].parse().map_err(|_| parse_err())?;
            let value = fields[n_factors + 3].parse().map_err(|_| parse_err())?;
            records.push(RawRecord { levels, replicate, sequence, start_us, value });
        }
        Ok(Campaign { metadata, factor_names, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Up to four distinct levels of one kind: Int, Float (integral
    /// ones included, which render like Ints), Text or Flag.
    fn random_levels(rng: &mut ChaCha8Rng, kind: u32) -> Vec<Level> {
        let n = rng.random_range(1..5usize);
        let mut levels: Vec<Level> = Vec::new();
        for i in 0..n {
            let level = match kind {
                0 => Level::Int(rng.random_range(-1_000_000i64..1_000_000)),
                1 if i % 2 == 0 => Level::Float(rng.random_range(-1e6f64..1e6)),
                1 => Level::Float(rng.random_range(0i64..64) as f64),
                2 => Level::Text(["ping_pong", "async send", "x", "ondemand"][i].to_string()),
                _ => Level::Flag(i % 2 == 0),
            };
            if !levels.contains(&level) {
                levels.push(level);
            }
        }
        levels
    }

    /// A campaign over a shuffled plan of `n_factors` random factors.
    /// Interned rows share their plan cell's tuple; hand-built rows get
    /// a fresh tuple each, as a campaign assembled record by record does.
    fn random_campaign(seed: u64, n_factors: usize, reps: u32, interned: bool) -> Campaign {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut doe = FullFactorial::new().replicates(reps);
        for f in 0..n_factors {
            let kind = rng.random_range(0u32..4);
            doe =
                doe.factor(Factor { name: format!("f{f}"), levels: random_levels(&mut rng, kind) });
        }
        let mut plan = doe.build();
        plan.shuffle(seed);
        let records = plan
            .rows()
            .iter()
            .enumerate()
            .map(|(i, row)| RawRecord {
                levels: if interned { row.levels.clone() } else { row.levels.to_vec().into() },
                replicate: row.replicate,
                sequence: i as u64,
                start_us: rng.random_range(0.0f64..1e9),
                value: rng.random_range(-1e3f64..1e6),
            })
            .collect();
        let mut metadata = BTreeMap::new();
        metadata.insert("seed".to_string(), seed.to_string());
        metadata.insert("value_unit".to_string(), "us".to_string());
        Campaign { metadata, factor_names: plan.factor_names().to_vec(), records }
    }

    /// One hostile edit of data row `at` (0-based, past the header): an
    /// extra or a missing leading field (the fixed columns still parse,
    /// so only the field count can object), an extra trailing field, a
    /// blank line, padded fields, or a non-numeric or non-integral fixed
    /// column.
    fn mutate(csv: &str, header_line: usize, at: usize, how: u32) -> String {
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let data = lines.len() - header_line - 1;
        if data == 0 {
            return csv.to_string();
        }
        let i = header_line + 1 + at % data;
        let line = lines[i].clone();
        let mut fields: Vec<&str> = line.split(',').collect();
        let n = fields.len();
        match how {
            0 => lines[i] = format!("extra,{line}"),
            1 => lines[i] = fields[1..].join(","),
            2 => lines[i].push_str(",7"),
            3 => lines.insert(i, "   ".to_string()),
            4 => lines[i] = fields.iter().map(|f| format!(" {f}\t")).collect::<Vec<_>>().join(","),
            5 => {
                fields[n - 1 - at % 4] = "x1";
                lines[i] = fields.join(",");
            }
            _ => {
                fields[n - 4 + at % 2] = "1.5";
                lines[i] = fields.join(",");
            }
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cell_interning_parser_matches_the_reference(
            seed in any::<u64>(),
            n_factors in 0usize..4,
            reps in 1u32..4,
            interned in any::<bool>(),
        ) {
            let campaign = random_campaign(seed, n_factors, reps, interned);
            let csv = campaign.to_csv();
            let parsed = Campaign::from_csv(&csv).unwrap();
            let oracle = reference::from_csv(&csv).unwrap();
            prop_assert_eq!(&parsed, &oracle);
            // Bytes, not values: an integral Float level reads back as an Int.
            prop_assert_eq!(parsed.to_csv(), csv);
            // Every record of a cell shares one tuple, consecutive or not.
            let mut ids: HashMap<String, usize> = HashMap::new();
            for r in &parsed.records {
                let key = r.levels.iter().map(|l| format!("{l:?}")).collect::<Vec<_>>().join("|");
                let id = *ids.entry(key).or_insert(r.levels.shared_id());
                prop_assert_eq!(id, r.levels.shared_id());
            }
        }

        #[test]
        fn both_parsers_agree_on_mutated_lines(
            seed in any::<u64>(),
            n_factors in 0usize..4,
            at in 0usize..1000,
            how in 0u32..7,
            interned in any::<bool>(),
        ) {
            let campaign = random_campaign(seed, n_factors, 2, interned);
            let header_line = campaign.metadata.len();
            let csv = mutate(&campaign.to_csv(), header_line, at, how);
            let (new, old) = (Campaign::from_csv(&csv), reference::from_csv(&csv));
            prop_assert_eq!(&new, &old);
            if let (Ok(new), Ok(old)) = (new, old) {
                prop_assert_eq!(new.to_csv(), old.to_csv());
            }
        }
    }

    fn sample_campaign() -> Campaign {
        let mut metadata = BTreeMap::new();
        metadata.insert("platform".into(), "taurus".into());
        metadata.insert("value_unit".into(), "us".into());
        Campaign {
            metadata,
            factor_names: vec!["op".into(), "size".into()],
            records: vec![
                RawRecord {
                    levels: vec![Level::Text("ping_pong".into()), Level::Int(64)].into(),
                    replicate: 0,
                    sequence: 0,
                    start_us: 0.0,
                    value: 31.5,
                },
                RawRecord {
                    levels: vec![Level::Text("ping_pong".into()), Level::Int(64)].into(),
                    replicate: 1,
                    sequence: 1,
                    start_us: 33.0,
                    value: 30.9,
                },
                RawRecord {
                    levels: vec![Level::Text("async_send".into()), Level::Int(128)].into(),
                    replicate: 0,
                    sequence: 2,
                    start_us: 66.0,
                    value: 2.2,
                },
            ],
        }
    }

    #[test]
    fn csv_roundtrip() {
        let c = sample_campaign();
        let csv = c.to_csv();
        let back = Campaign::from_csv(&csv).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn csv_has_metadata_comments() {
        let csv = sample_campaign().to_csv();
        assert!(csv.starts_with("# platform: taurus\n"));
        assert!(csv.contains("op,size,replicate,sequence,start_us,value\n"));
    }

    #[test]
    fn group_by_single_factor() {
        let c = sample_campaign();
        let groups = c.group_by(&["op"]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![31.5, 30.9]);
        assert_eq!(groups[1].1, vec![2.2]);
    }

    #[test]
    fn group_by_two_factors() {
        let c = sample_campaign();
        let groups = c.group_by(&["op", "size"]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![Level::Text("ping_pong".into()), Level::Int(64)]);
    }

    #[test]
    fn paired_extraction() {
        let c = sample_campaign();
        let (xs, ys) = c.paired("size").unwrap();
        assert_eq!(xs, vec![64.0, 64.0, 128.0]);
        assert_eq!(ys, vec![31.5, 30.9, 2.2]);
        assert!(c.paired("op").is_none(), "text factor is not numeric");
    }

    #[test]
    fn filtered_keeps_matching_rows() {
        let c = sample_campaign();
        let only_pp = c.filtered("op", |l| l.as_text() == Some("ping_pong"));
        assert_eq!(only_pp.records.len(), 2);
        assert_eq!(only_pp.metadata, c.metadata);
    }

    #[test]
    fn bad_csv_rejected() {
        assert!(Campaign::from_csv("").is_err());
        assert!(Campaign::from_csv("a,b\n1,2\n").is_err());
        let c = sample_campaign();
        let mut csv = c.to_csv();
        csv.push_str("bad,row\n");
        assert!(Campaign::from_csv(&csv).is_err());
    }

    #[test]
    fn values_in_order() {
        assert_eq!(sample_campaign().values(), vec![31.5, 30.9, 2.2]);
    }
}
