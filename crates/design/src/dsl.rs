//! A small experiment-description language.
//!
//! Paper §II-B: "SkaMPI and Conceptual feature a Domain-Specific Language
//! to describe how experiments should be accomplished … Both make it
//! possible to very rapidly generate complex benchmarking programs with a
//! few lines of DSL code." This module provides the same convenience for
//! the *white-box* pipeline: a few lines of text compile into an
//! [`ExperimentPlan`] — crucially, into a **plan artifact**, not into an
//! opaque program that measures and aggregates in one breath.
//!
//! [`parse`] stops at the declared [`Design`]; it expands through the
//! same [`Design::expand`] a charm-spec/1 benchmark does, which is how
//! `charm_core::spec` lowers a DSL plan into a benchmark spec.
//!
//! # Grammar
//!
//! ```text
//! plan       := line*
//! line       := factor | replicate | order | comment | blank
//! factor     := "factor" NAME values
//! values     := list | range | logrange
//! list       := "in" "[" value ("," value)* "]"
//! range      := "from" INT "to" INT "step" INT
//! logrange   := "loguniform" INT ".." INT "count" INT "seed" INT
//! replicate  := "replicates" INT
//! order      := "order" ("randomized" INT | "sequential")
//! comment    := "#" ...
//! ```
//!
//! # Example
//!
//! ```
//! use charm_design::dsl::compile;
//!
//! let plan = compile(
//!     "factor op in [ping_pong, async_send]\n\
//!      factor size loguniform 8..65536 count 20 seed 7\n\
//!      replicates 5\n\
//!      order randomized 42\n",
//! ).unwrap();
//! assert_eq!(plan.len(), 2 * 20 * 5);
//! ```

use crate::doe::{self, Design, Order};
use crate::factors::{Factor, Level};
use crate::plan::ExperimentPlan;
use crate::sampling;
use std::fmt;

/// A DSL compilation error with its line number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError { line, message: message.into() }
}

/// Compiles DSL text into an experiment plan.
pub fn compile(text: &str) -> Result<ExperimentPlan, DslError> {
    parse(text)?.expand().map_err(|e| err(0, e.to_string()))
}

/// Parses DSL text into its design, before expansion.
pub fn parse(text: &str) -> Result<Design, DslError> {
    let mut factors: Vec<Factor> = Vec::new();
    let mut replicates: u32 = 1;
    let mut order = Order::AsDeclared;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "factor" => {
                let f = parse_factor(&tokens, lineno)?;
                if factors.iter().any(|g| g.name == f.name) {
                    return Err(err(lineno, format!("duplicate factor {:?}", f.name)));
                }
                factors.push(f);
            }
            "replicates" => {
                let n: u32 = tokens
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "replicates needs a positive integer"))?;
                if n == 0 {
                    return Err(err(lineno, "replicates must be >= 1"));
                }
                replicates = n;
            }
            "order" => match tokens.get(1) {
                Some(&"sequential") => order = Order::Sequential,
                Some(&"randomized") => {
                    let seed: u64 = tokens
                        .get(2)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "order randomized needs a seed"))?;
                    order = Order::Randomized(seed);
                }
                _ => return Err(err(lineno, "order must be 'randomized SEED' or 'sequential'")),
            },
            other => return Err(err(lineno, format!("unknown statement {other:?}"))),
        }
    }

    if factors.is_empty() {
        return Err(err(0, "plan needs at least one factor"));
    }
    Ok(Design { factors, replicates, order })
}

fn parse_factor(tokens: &[&str], lineno: usize) -> Result<Factor, DslError> {
    let name = *tokens.get(1).ok_or_else(|| err(lineno, "factor needs a name"))?;
    match tokens.get(2) {
        Some(&"in") => {
            // re-join and parse the bracketed list (values may contain
            // spaces after commas)
            let rest = tokens[3..].join(" ");
            let inner = rest
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| err(lineno, "expected [v1, v2, ...]"))?;
            let levels: Vec<Level> = inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(Level::parse)
                .collect();
            if levels.is_empty() {
                return Err(err(lineno, "empty level list"));
            }
            Ok(Factor { name: name.to_string(), levels })
        }
        Some(&"from") => {
            let get = |i: usize, what: &str| -> Result<i64, DslError> {
                tokens
                    .get(i)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, format!("range needs {what}")))
            };
            if tokens.get(4) != Some(&"to") || tokens.get(6) != Some(&"step") {
                return Err(err(lineno, "expected: from A to B step S"));
            }
            let levels = doe::range_levels(get(3, "start")?, get(5, "end")?, get(7, "step")?)
                .ok_or_else(|| err(lineno, "range needs start <= end and step > 0"))?;
            Ok(Factor { name: name.to_string(), levels })
        }
        Some(&"loguniform") => {
            let range = tokens.get(3).ok_or_else(|| err(lineno, "loguniform needs A..B"))?;
            let (a, b) = range
                .split_once("..")
                .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
                .ok_or_else(|| err(lineno, "loguniform bounds must be A..B integers"))?;
            if tokens.get(4) != Some(&"count") || tokens.get(6) != Some(&"seed") {
                return Err(err(lineno, "expected: loguniform A..B count N seed S"));
            }
            let count: usize = tokens
                .get(5)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(lineno, "bad count"))?;
            let seed: u64 = tokens
                .get(7)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(lineno, "bad seed"))?;
            if a == 0 || a > b {
                return Err(err(lineno, "loguniform needs 0 < A <= B"));
            }
            let levels: Vec<Level> = sampling::log_uniform_sizes(a, b, count, seed)
                .into_iter()
                .map(|s| Level::Int(s as i64))
                .collect();
            Ok(Factor { name: name.to_string(), levels })
        }
        _ => Err(err(lineno, "factor needs 'in [..]', 'from..to..step', or 'loguniform'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_compiles() {
        let plan = compile(
            "factor op in [ping_pong, async_send]\n\
             factor size loguniform 8..65536 count 20 seed 7\n\
             replicates 5\n\
             order randomized 42\n",
        )
        .unwrap();
        assert_eq!(plan.len(), 200);
        assert_eq!(plan.factor_names(), &["op".to_string(), "size".to_string()]);
    }

    #[test]
    fn list_values_parse_types() {
        let plan = compile("factor mix in [1, 2.5, eager, true]\n").unwrap();
        let levels: Vec<&Level> = plan.rows().iter().map(|r| &r.levels[0]).collect();
        assert!(levels.contains(&&Level::Int(1)));
        assert!(levels.contains(&&Level::Float(2.5)));
        assert!(levels.contains(&&Level::Text("eager".into())));
        assert!(levels.contains(&&Level::Flag(true)));
    }

    #[test]
    fn linear_range() {
        let plan = compile("factor size from 1024 to 4096 step 1024\n").unwrap();
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn randomized_order_is_seeded() {
        let src = "factor x from 1 to 20 step 1\norder randomized 5\n";
        let a = compile(src).unwrap();
        let b = compile(src).unwrap();
        assert_eq!(a, b);
        let c = compile("factor x from 1 to 20 step 1\norder randomized 6\n").unwrap();
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn sequential_order() {
        let plan = compile("factor x from 1 to 5 step 1\norder sequential\n").unwrap();
        let vals: Vec<i64> = plan.rows().iter().map(|r| r.levels[0].as_int().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let plan = compile("# a comment\n\nfactor x in [1]\n  # indented comment\n").unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = compile("factor x in [1]\nbogus statement\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = compile("factor x from 5 to 1 step 1\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = compile("replicates 0\nfactor x in [1]\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = compile("factor x in [1]\nfactor x in [2]\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        assert!(compile("").is_err());
        assert!(compile("factor x loguniform 0..10 count 5 seed 1\n").is_err());
    }

    #[test]
    fn compiled_plan_feeds_the_engine_shape() {
        // the DSL output is a normal plan: named columns, one row per
        // combination and replicate, in declared order
        let plan =
            compile("factor op in [ping_pong]\nfactor size from 64 to 256 step 64\nreplicates 2\n")
                .unwrap();
        assert_eq!(plan.factor_names(), ["op", "size"]);
        assert_eq!(plan.len(), 4 * 2);
        assert!(plan.to_csv().starts_with("op,size,replicate\nping_pong,64,0\nping_pong,64,1\n"));
    }

    #[test]
    fn a_design_whose_row_count_overflows_usize_is_refused() {
        // 65536^4 = 2^64 rows: one more than usize holds on 64-bit hosts
        let text =
            ["a", "b", "c", "d"].map(|f| format!("factor {f} from 1 to 65536 step 1\n")).concat();
        let e = compile(&text).unwrap_err();
        assert!(e.message.contains("rows"), "{e}");
        assert!(parse(&text).is_ok(), "the design itself is well formed");
    }
}
