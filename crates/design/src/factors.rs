//! Factors and levels.
//!
//! A *factor* is an input the experimenter controls (buffer size, stride,
//! element type, scheduling priority, …); a *level* is one value that
//! factor may take in the campaign. Figure 13 of the paper lists the
//! factors that turned out to matter for the seemingly trivial memory
//! benchmark — experiment plans are built from exactly these objects.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One value of a factor.
#[derive(Debug, Clone, PartialEq)]
pub enum Level {
    /// An integer-valued level (sizes, strides, repetition counts).
    Int(i64),
    /// A real-valued level.
    Float(f64),
    /// A categorical level (governor name, allocation technique, …).
    Text(String),
    /// A boolean level (loop unrolling on/off, pinning on/off).
    Flag(bool),
}

impl Level {
    /// The level as `i64` when it is (or losslessly converts to) one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Level::Int(v) => Some(*v),
            Level::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// The level as `f64` when numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Level::Int(v) => Some(*v as f64),
            Level::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The level as text when categorical.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Level::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The level as bool when it is a flag.
    pub fn as_flag(&self) -> Option<bool> {
        match self {
            Level::Flag(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a level back from its CSV text representation, preferring
    /// the narrowest type that round-trips (`Flag`, `Int`, `Float`,
    /// falling back to `Text`).
    pub fn parse(s: &str) -> Level {
        match s {
            "true" => return Level::Flag(true),
            "false" => return Level::Flag(false),
            _ => {}
        }
        if let Ok(v) = s.parse::<i64>() {
            return Level::Int(v);
        }
        if let Ok(v) = s.parse::<f64>() {
            return Level::Float(v);
        }
        Level::Text(s.to_string())
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Int(v) => write!(f, "{v}"),
            Level::Float(v) => write!(f, "{v}"),
            Level::Text(s) => write!(f, "{s}"),
            Level::Flag(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Level {
    fn from(v: i64) -> Self {
        Level::Int(v)
    }
}
impl From<usize> for Level {
    fn from(v: usize) -> Self {
        Level::Int(v as i64)
    }
}
impl From<f64> for Level {
    fn from(v: f64) -> Self {
        Level::Float(v)
    }
}
impl From<&str> for Level {
    fn from(v: &str) -> Self {
        Level::Text(v.to_string())
    }
}
impl From<bool> for Level {
    fn from(v: bool) -> Self {
        Level::Flag(v)
    }
}

/// A shared, immutable level tuple: one design cell's levels stored
/// once, referenced by every record of that cell.
///
/// This is the unit of the columnar record pipeline (DESIGN.md §18):
/// the engine interns one `Levels` per distinct plan cell, and each
/// record holds a reference into that table — so building, forking,
/// merging, filtering, and grouping records costs a refcount bump per
/// row instead of a `Vec` allocation plus a `String` clone per `Text`
/// level. Dereferences to `[Level]`, so indexing and iteration read
/// exactly like the `Vec<Level>` it replaced.
#[derive(Debug, Clone)]
pub struct Levels(Arc<[Level]>);

impl Levels {
    /// A stable identity of the shared allocation: two `Levels` with
    /// equal ids are the *same* interned tuple. The converse does not
    /// hold — independently built tuples may still be equal by content
    /// — so this is a grouping fast path, never an equality substitute.
    pub fn shared_id(&self) -> usize {
        Arc::as_ptr(&self.0) as *const Level as usize
    }
}

impl Deref for Levels {
    type Target = [Level];

    fn deref(&self) -> &[Level] {
        &self.0
    }
}

impl From<Vec<Level>> for Levels {
    fn from(levels: Vec<Level>) -> Self {
        Levels(levels.into())
    }
}

impl FromIterator<Level> for Levels {
    fn from_iter<I: IntoIterator<Item = Level>>(iter: I) -> Self {
        Levels(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Levels {
    type Item = &'a Level;
    type IntoIter = std::slice::Iter<'a, Level>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Levels {
    fn eq(&self, other: &Self) -> bool {
        // Interned tuples share one allocation, so equality between
        // records of one campaign is usually a pointer compare.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl PartialEq<[Level]> for Levels {
    fn eq(&self, other: &[Level]) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Vec<Level>> for Levels {
    fn eq(&self, other: &Vec<Level>) -> bool {
        *self.0 == other[..]
    }
}

/// A named factor with its candidate levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Factor name (CSV column header).
    pub name: String,
    /// Levels this factor takes in the campaign.
    pub levels: Vec<Level>,
}

impl Factor {
    /// Creates a factor from anything convertible to levels.
    pub fn new<N: Into<String>, L: Into<Level>>(name: N, levels: Vec<L>) -> Self {
        Factor { name: name.into(), levels: levels.into_iter().map(Into::into).collect() }
    }

    /// Number of levels.
    pub(crate) fn cardinality(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_conversions() {
        assert_eq!(Level::Int(3).as_float(), Some(3.0));
        assert_eq!(Level::Float(3.0).as_int(), Some(3));
        assert_eq!(Level::Float(3.5).as_int(), None);
        assert_eq!(Level::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Level::Flag(true).as_flag(), Some(true));
        assert_eq!(Level::Int(1).as_flag(), None);
    }

    #[test]
    fn level_display_roundtrip() {
        for l in
            [Level::Int(-4), Level::Float(2.5), Level::Text("ondemand".into()), Level::Flag(false)]
        {
            assert_eq!(Level::parse(&l.to_string()), l);
        }
    }

    #[test]
    fn parse_prefers_narrowest_type() {
        assert_eq!(Level::parse("42"), Level::Int(42));
        assert_eq!(Level::parse("4.2"), Level::Float(4.2));
        assert_eq!(Level::parse("true"), Level::Flag(true));
        assert_eq!(Level::parse("eager"), Level::Text("eager".into()));
    }

    #[test]
    fn levels_behave_like_the_vec_they_wrap() {
        let vec = vec![Level::Text("pp".into()), Level::Int(64), Level::Flag(true)];
        let shared: Levels = vec.clone().into();
        assert_eq!(shared, vec);
        assert_eq!(shared[1], Level::Int(64));
        assert_eq!(shared.len(), 3);
        assert_eq!((&shared).into_iter().count(), 3);
        // clones share the allocation; rebuilt tuples do not, but stay equal
        assert_eq!(shared.clone().shared_id(), shared.shared_id());
        let rebuilt: Levels = vec.clone().into();
        assert_ne!(rebuilt.shared_id(), shared.shared_id());
        assert_eq!(rebuilt, shared);
    }

    #[test]
    fn factor_from_mixed_sources() {
        let f = Factor::new("stride", vec![1usize, 2, 4, 8]);
        assert_eq!(f.cardinality(), 4);
        assert_eq!(f.levels[2], Level::Int(4));
        let g = Factor::new("governor", vec!["ondemand", "performance"]);
        assert_eq!(g.cardinality(), 2);
    }
}
