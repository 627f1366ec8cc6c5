//! The workspace-level error type.
//!
//! Each stage crate keeps its own structured error (`TargetError` in the
//! engine, `AnalysisError` in the analysis crate, …), but code driving
//! the whole methodology — regenerator binaries, end-to-end studies —
//! wants one type to `?` through. [`CharmError`] wraps them all,
//! implements [`std::error::Error`] with `source()`, and converts from
//! each stage error via `From`, so `Box<dyn Error>`-style plumbing is
//! never needed inside the workspace.

use crate::spec::SpecError;
use charm_analysis::AnalysisError;
use charm_engine::record::CampaignParseError;
use charm_engine::TargetError;
use charm_obs::JsonlError;
use std::fmt;

/// Any error the three-stage methodology can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum CharmError {
    /// Stage 2: a target refused a measurement (bad factor, missing
    /// factor, unshardable configuration).
    Target(TargetError),
    /// Stage 3: a statistical routine received a degenerate sample.
    Analysis(AnalysisError),
    /// A retained campaign CSV failed to parse back.
    Parse(CampaignParseError),
    /// An observability report JSONL failed to parse back.
    Report(JsonlError),
    /// A benchmark spec does not resolve to the design a driver needs.
    Spec(SpecError),
}

impl fmt::Display for CharmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharmError::Target(e) => write!(f, "measurement failed: {e}"),
            CharmError::Analysis(e) => write!(f, "analysis failed: {e}"),
            CharmError::Parse(e) => write!(f, "campaign CSV unreadable: {e}"),
            CharmError::Report(e) => write!(f, "observability report unreadable: {e}"),
            CharmError::Spec(e) => write!(f, "bad benchmark spec: {e}"),
        }
    }
}

impl std::error::Error for CharmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharmError::Target(e) => Some(e),
            CharmError::Analysis(e) => Some(e),
            CharmError::Parse(e) => Some(e),
            CharmError::Report(e) => Some(e),
            CharmError::Spec(e) => Some(e),
        }
    }
}

impl From<TargetError> for CharmError {
    fn from(e: TargetError) -> Self {
        CharmError::Target(e)
    }
}

impl From<AnalysisError> for CharmError {
    fn from(e: AnalysisError) -> Self {
        CharmError::Analysis(e)
    }
}

impl From<CampaignParseError> for CharmError {
    fn from(e: CampaignParseError) -> Self {
        CharmError::Parse(e)
    }
}

impl From<JsonlError> for CharmError {
    fn from(e: JsonlError) -> Self {
        CharmError::Report(e)
    }
}

impl From<SpecError> for CharmError {
    fn from(e: SpecError) -> Self {
        CharmError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    fn fallible_pipeline(break_at: u8) -> Result<(), CharmError> {
        if break_at == 2 {
            Err(TargetError::MissingFactor("size"))?;
        }
        if break_at == 3 {
            Err(AnalysisError::EmptyInput)?;
        }
        Ok(())
    }

    #[test]
    fn question_mark_converts_stage_errors() {
        assert!(fallible_pipeline(0).is_ok());
        assert_eq!(
            fallible_pipeline(2),
            Err(CharmError::Target(TargetError::MissingFactor("size")))
        );
        assert_eq!(fallible_pipeline(3), Err(CharmError::Analysis(AnalysisError::EmptyInput)));
    }

    #[test]
    fn source_chain_reaches_stage_errors() {
        let e = CharmError::from(CampaignParseError::MissingHeader);
        assert!(e.to_string().contains("missing header"));
        assert!(e.source().unwrap().downcast_ref::<CampaignParseError>().is_some());
        let e = CharmError::from(AnalysisError::NonFiniteInput);
        assert!(e.source().unwrap().downcast_ref::<AnalysisError>().is_some());
        let e = CharmError::from(SpecError { message: "no [target]".into() });
        assert_eq!(e.to_string(), "bad benchmark spec: no [target]");
    }
}
