//! A minimal TOML-subset parser for benchmark spec files.
//!
//! The build environment is offline (no `toml` crate), and benchmark
//! specs need only a sliver of TOML, so this module implements exactly
//! that sliver — strictly, with line numbers on every error:
//!
//! * `[table]` and `[table.subtable]` headers (arbitrary nesting);
//! * `key = value` with string, integer (underscore separators
//!   allowed), float, boolean, and single-line array values;
//! * `#` comments and blank lines.
//!
//! One deliberate departure from a general-purpose parser: **tables and
//! keys remember declaration order**. A benchmark spec's `[factors.*]`
//! tables define the plan's factor columns, and column order is part of
//! the design artifact — alphabetizing it would silently change every
//! campaign's layout.

use std::fmt;

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A quoted string.
    Str(String),
    /// An integer (underscore separators accepted on parse).
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array of scalars (possibly mixed).
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string, when it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, when it is one.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value the way a spec file would write it.
    pub(crate) fn render(&self) -> String {
        match self {
            Value::Str(s) => format!("{s:?}"),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => v.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Array(vs) => {
                let inner: Vec<String> = vs.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }
}

/// A table entry: a leaf value (with the line it was defined on) or a
/// nested table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Item {
    /// `key = value`.
    Value {
        /// The parsed value.
        value: Value,
        /// 1-based line of the assignment (for error messages).
        line: usize,
    },
    /// `[key]` / `[parent.key]`.
    Table(Table),
}

/// An order-preserving table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: Vec<(String, Item)>,
}

impl Table {
    /// The entries in declaration order.
    pub(crate) fn entries(&self) -> &[(String, Item)] {
        &self.entries
    }

    /// Looks up a direct entry.
    pub(crate) fn get(&self, key: &str) -> Option<&Item> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, item)| item)
    }

    /// A direct leaf value.
    pub(crate) fn value(&self, key: &str) -> Option<&Value> {
        match self.get(key) {
            Some(Item::Value { value, .. }) => Some(value),
            _ => None,
        }
    }

    /// A direct subtable.
    pub(crate) fn table(&self, key: &str) -> Option<&Table> {
        match self.get(key) {
            Some(Item::Table(t)) => Some(t),
            _ => None,
        }
    }

    /// The names of all direct subtables, in declaration order.
    pub(crate) fn subtable_names(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|(k, item)| matches!(item, Item::Table(_)).then_some(k.as_str()))
            .collect()
    }

    /// All direct leaf values, in declaration order.
    pub(crate) fn values(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().filter_map(|(k, item)| match item {
            Item::Value { value, .. } => Some((k.as_str(), value)),
            Item::Table(_) => None,
        })
    }

    /// Appends an entry verbatim (spec resolution uses this to build
    /// substituted copies; parsing goes through `ensure_table`).
    pub(crate) fn push(&mut self, key: String, item: Item) {
        self.entries.push((key, item));
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Item> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, item)| item)
    }

    fn ensure_table(&mut self, key: &str, line: usize) -> Result<&mut Table, TomlError> {
        if self.get(key).is_none() {
            self.entries.push((key.to_string(), Item::Table(Table::default())));
        }
        match self.get_mut(key) {
            Some(Item::Table(t)) => Ok(t),
            _ => Err(err(line, format!("{key:?} is already a value, not a table"))),
        }
    }
}

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TomlError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError { line, message: message.into() }
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// Parses a spec document into its root table.
pub(crate) fn parse(text: &str) -> Result<Table, TomlError> {
    let mut root = Table::default();
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "table header is missing its closing ']'"))?
                .trim();
            if header.is_empty() || !valid_key(header) || header.split('.').any(str::is_empty) {
                return Err(err(lineno, format!("bad table header [{header}]")));
            }
            // Walk/create the path, checking we are not redefining a
            // table that already has leaf values from an earlier header.
            let segments: Vec<&str> = header.split('.').collect();
            let mut t = &mut root;
            for seg in &segments {
                t = t.ensure_table(seg, lineno)?;
            }
            path = segments.into_iter().map(str::to_string).collect();
            continue;
        }
        let (key, value_text) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, "expected `key = value` or a [table] header"))?;
        let key = key.trim();
        if !valid_key(key) || key.contains('.') {
            return Err(err(lineno, format!("bad key {key:?}")));
        }
        let value = parse_value(value_text.trim(), lineno)?;
        let mut t = &mut root;
        for seg in &path {
            t = t.ensure_table(seg, lineno)?;
        }
        if t.get(key).is_some() {
            return Err(err(lineno, format!("duplicate key {key:?}")));
        }
        t.entries.push((key.to_string(), Item::Value { value, line: lineno }));
    }
    Ok(root)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, TomlError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest.strip_suffix(']').ok_or_else(|| {
            err(lineno, "array is missing its closing ']' (arrays are single-line)")
        })?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            let v = parse_value(part, lineno)?;
            if matches!(v, Value::Array(_)) {
                return Err(err(lineno, "nested arrays are not supported"));
            }
            items.push(v);
        }
        return Ok(Value::Array(items));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, "string is missing its closing quote"))?;
        return unescape(inner, lineno).map(Value::Str);
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let numeric: String = text.chars().filter(|&c| c != '_').collect();
    if let Ok(v) = numeric.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = numeric.parse::<f64>() {
        if v.is_finite() {
            return Ok(Value::Float(v));
        }
    }
    Err(err(lineno, format!("unparseable value {text:?} (strings must be double-quoted)")))
}

/// Splits array items on commas outside quotes.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    items.push(&inner[start..]);
    items
}

fn unescape(s: &str, lineno: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(err(
                    lineno,
                    format!("unsupported string escape \\{}", other.unwrap_or(' ')),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_values_and_order() {
        let t = parse(
            "top = 1\n\
             [benchmark]\n\
             name = \"fig04\"   # trailing comment\n\
             quick = false\n\
             [factors.op]\n\
             levels = [\"a\", \"b\"]\n\
             [factors.size]\n\
             count = 4_096\n\
             scale = 1.5\n",
        )
        .unwrap();
        assert_eq!(t.value("top"), Some(&Value::Int(1)));
        let b = t.table("benchmark").unwrap();
        assert_eq!(b.value("name").unwrap().as_str(), Some("fig04"));
        assert_eq!(b.value("quick"), Some(&Value::Bool(false)));
        let factors = t.table("factors").unwrap();
        assert_eq!(factors.subtable_names(), vec!["op", "size"]);
        let op = factors.table("op").unwrap();
        assert_eq!(
            op.value("levels").unwrap().as_array().unwrap(),
            &[Value::Str("a".into()), Value::Str("b".into())]
        );
        let size = factors.table("size").unwrap();
        assert_eq!(size.value("count").unwrap().as_int(), Some(4096));
        assert_eq!(size.value("scale"), Some(&Value::Float(1.5)));
    }

    #[test]
    fn declaration_order_is_preserved_not_sorted() {
        let t = parse("[factors.zebra]\nx = 1\n[factors.alpha]\nx = 2\n[factors.mid]\nx = 3\n")
            .unwrap();
        assert_eq!(t.table("factors").unwrap().subtable_names(), vec!["zebra", "alpha", "mid"]);
    }

    #[test]
    fn strings_with_hashes_commas_and_escapes() {
        let t = parse(
            "a = \"has # not a comment\"\n\
             b = [\"x,y\", \"z\"]\n\
             c = \"quote \\\" and backslash \\\\\"\n",
        )
        .unwrap();
        assert_eq!(t.value("a").unwrap().as_str(), Some("has # not a comment"));
        assert_eq!(
            t.value("b").unwrap().as_array().unwrap(),
            &[Value::Str("x,y".into()), Value::Str("z".into())]
        );
        assert_eq!(t.value("c").unwrap().as_str(), Some("quote \" and backslash \\"));
    }

    #[test]
    fn mixed_and_trailing_comma_arrays() {
        let t = parse("a = [1, 2.5, true, \"x\",]\nempty = []\n").unwrap();
        assert_eq!(
            t.value("a").unwrap().as_array().unwrap(),
            &[Value::Int(1), Value::Float(2.5), Value::Bool(true), Value::Str("x".into())]
        );
        assert_eq!(t.value("empty").unwrap().as_array().unwrap(), &[]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (src, line, needle) in [
            ("x = 1\ny = \n", 2, "missing value"),
            ("[broken\nx = 1\n", 1, "closing ']'"),
            ("x = unquoted\n", 1, "double-quoted"),
            ("x = 1\nx = 2\n", 2, "duplicate key"),
            ("a = [1, [2]]\n", 1, "nested"),
            ("just some text\n", 1, "expected"),
            ("x = \"unterminated\n", 1, "closing quote"),
            ("[]\n", 1, "bad table header"),
            ("[a..b]\n", 1, "bad table header"),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!(e.line, line, "source {src:?}");
            assert!(e.message.contains(needle), "{src:?} gave {e}");
        }
    }

    #[test]
    fn table_vs_value_collisions_rejected() {
        assert!(parse("[a]\nx = 1\n[a.x]\ny = 2\n").is_err());
    }

    #[test]
    fn reopening_a_table_appends() {
        // Later [target] sections extend the same table; duplicate leaf
        // keys within it still error.
        let t = parse("[target]\na = 1\n[other]\nz = 1\n[target]\nb = 2\n").unwrap();
        let target = t.table("target").unwrap();
        assert_eq!(target.value("a").unwrap().as_int(), Some(1));
        assert_eq!(target.value("b").unwrap().as_int(), Some(2));
        assert!(parse("[target]\na = 1\n[target]\na = 2\n").is_err());
    }

    #[test]
    fn render_roundtrips_shapes() {
        let t = parse("a = [1, \"x\", true, 2.5]\n").unwrap();
        assert_eq!(t.value("a").unwrap().render(), "[1, \"x\", true, 2.5]");
    }
}
