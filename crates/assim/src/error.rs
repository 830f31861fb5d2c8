//! Assimilation error types.

use std::error::Error;
use std::fmt;

/// Errors returned by the assimilation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AssimError {
    /// An observation lies outside the analysis grid.
    ObservationOutsideGrid {
        /// Latitude of the offending observation.
        lat: f64,
        /// Longitude of the offending observation.
        lon: f64,
    },
    /// The innovation covariance matrix was not positive definite (e.g. a
    /// zero observation-error variance on duplicated locations).
    SingularCovariance,
    /// No observations were provided where at least one is required.
    NoObservations,
    /// Grid construction was given non-positive dimensions.
    BadGridShape,
    /// A stored observation cannot enter an hourly analysis: its hour of
    /// day is not in `0..24`, or its error standard deviation is not
    /// strictly positive and finite.
    InvalidObservation {
        /// Hour of day of the offending observation.
        hour: u32,
        /// Its observation-error standard deviation, dB.
        sigma_db: f64,
    },
}

impl fmt::Display for AssimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssimError::ObservationOutsideGrid { lat, lon } => {
                write!(f, "observation at ({lat}, {lon}) is outside the grid")
            }
            AssimError::SingularCovariance => {
                write!(f, "innovation covariance is not positive definite")
            }
            AssimError::NoObservations => write!(f, "no observations to assimilate"),
            AssimError::BadGridShape => write!(f, "grid dimensions must be positive"),
            AssimError::InvalidObservation { hour, sigma_db } => write!(
                f,
                "observation with hour {hour} and error {sigma_db} dB: \
                 the hour must be in 0..24 and the error positive and finite"
            ),
        }
    }
}

impl Error for AssimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AssimError::ObservationOutsideGrid { lat: 1.0, lon: 2.0 };
        assert!(e.to_string().contains('1'));
        assert!(!AssimError::SingularCovariance.to_string().is_empty());
        assert!(!AssimError::NoObservations.to_string().is_empty());
        assert!(!AssimError::BadGridShape.to_string().is_empty());
        let e = AssimError::InvalidObservation {
            hour: 24,
            sigma_db: 0.0,
        };
        assert!(e.to_string().contains("24"));
    }
}
