//! Error type shared by all analysis routines.

use std::fmt;

/// Errors produced by statistical routines in this crate.
///
/// Every fallible function returns a structured error instead of panicking
/// so that analysis pipelines over many experiment cells can report *which*
/// cell was degenerate (empty, constant, too short, …) rather than aborting
/// a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The input sample was empty but the statistic needs at least one value.
    EmptyInput,
    /// The input had fewer observations than the statistic requires.
    TooFewObservations {
        /// Observations required by the routine.
        needed: usize,
        /// Observations actually supplied.
        got: usize,
    },
    /// Paired-sample routines (regression, LOESS, …) received slices of
    /// different lengths.
    LengthMismatch {
        /// Length of the x (predictor) slice.
        x: usize,
        /// Length of the y (response) slice.
        y: usize,
    },
    /// A non-finite (NaN or infinite) value was found in the input.
    NonFiniteInput,
    /// The predictor values were all identical, so no slope can be estimated.
    DegeneratePredictor,
    /// A parameter was outside its valid domain (e.g. a probability not in
    /// `[0, 1]`, a zero bandwidth, an unsorted breakpoint list).
    InvalidParameter(&'static str),
    /// A routine failed on one named part of its input, e.g. one segment
    /// of a piecewise fit or one operation of a network model.
    Within {
        /// Which part failed, e.g. `segment 2 [65536, 1048576] with 1
        /// distinct x`.
        context: String,
        /// The failure itself.
        cause: Box<AnalysisError>,
    },
}

impl AnalysisError {
    /// This error, prefixed with the part of the input it occurred in.
    pub fn within(self, context: impl Into<String>) -> AnalysisError {
        AnalysisError::Within { context: context.into(), cause: Box::new(self) }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyInput => write!(f, "empty input sample"),
            AnalysisError::TooFewObservations { needed, got } => {
                write!(f, "need at least {needed} observations, got {got}")
            }
            AnalysisError::LengthMismatch { x, y } => {
                write!(f, "paired samples have different lengths: x={x}, y={y}")
            }
            AnalysisError::NonFiniteInput => write!(f, "non-finite value in input"),
            AnalysisError::DegeneratePredictor => {
                write!(f, "all predictor values identical; slope undefined")
            }
            AnalysisError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            AnalysisError::Within { context, cause } => write!(f, "{context}: {cause}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Verifies that every value in `xs` is finite.
pub(crate) fn ensure_finite(xs: &[f64]) -> super::Result<()> {
    if xs.iter().any(|v| !v.is_finite()) {
        Err(AnalysisError::NonFiniteInput)
    } else {
        Ok(())
    }
}

/// Verifies that `xs` is non-empty and finite.
pub(crate) fn ensure_sample(xs: &[f64]) -> super::Result<()> {
    if xs.is_empty() {
        return Err(AnalysisError::EmptyInput);
    }
    ensure_finite(xs)
}

/// Verifies that paired slices agree in length, are non-empty and finite.
pub(crate) fn ensure_paired(x: &[f64], y: &[f64]) -> super::Result<()> {
    if x.len() != y.len() {
        return Err(AnalysisError::LengthMismatch { x: x.len(), y: y.len() });
    }
    ensure_sample(x)?;
    ensure_sample(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(AnalysisError::EmptyInput.to_string().contains("empty"));
        assert!(AnalysisError::TooFewObservations { needed: 3, got: 1 }.to_string().contains("3"));
        assert!(AnalysisError::LengthMismatch { x: 2, y: 5 }.to_string().contains("x=2"));
        assert!(AnalysisError::NonFiniteInput.to_string().contains("non-finite"));
        assert!(AnalysisError::DegeneratePredictor.to_string().contains("slope"));
        assert!(AnalysisError::InvalidParameter("p").to_string().contains("p"));
    }

    #[test]
    fn ensure_sample_rejects_empty_and_nan() {
        assert_eq!(ensure_sample(&[]), Err(AnalysisError::EmptyInput));
        assert_eq!(ensure_sample(&[1.0, f64::NAN]), Err(AnalysisError::NonFiniteInput));
        assert_eq!(ensure_sample(&[1.0, 2.0]), Ok(()));
    }

    #[test]
    fn ensure_paired_rejects_mismatch() {
        assert_eq!(
            ensure_paired(&[1.0], &[1.0, 2.0]),
            Err(AnalysisError::LengthMismatch { x: 1, y: 2 })
        );
        assert_eq!(ensure_paired(&[1.0, 2.0], &[3.0, 4.0]), Ok(()));
    }
}
