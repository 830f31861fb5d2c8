//! The catalog of phone models analysed by the paper.
//!
//! The paper's empirical study (Section 4.3, Figure 9) concentrates on the
//! 20 most popular phone models of the SoundCity user base. [`DeviceModel`]
//! enumerates them, ordered as in Figure 9 (by localized-measurement count),
//! and exposes the published per-model statistics, which downstream crates
//! use both to size the simulated crowd and as the reference column in the
//! reproduced Table (Fig 9).

use crate::error::ParseEnumError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Published per-model statistics from Figure 9 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelPaperStats {
    /// Number of distinct devices of this model in the study.
    pub devices: u64,
    /// Total measurements contributed by the model.
    pub measurements: u64,
    /// Measurements carrying a location fix.
    pub localized: u64,
}

impl ModelPaperStats {
    /// Fraction of this model's measurements that are localized.
    pub fn localized_fraction(&self) -> f64 {
        if self.measurements == 0 {
            0.0
        } else {
            self.localized as f64 / self.measurements as f64
        }
    }
}

macro_rules! device_models {
    ($(($variant:ident, $label:literal, $maker:literal,
        $devices:literal, $measurements:literal, $localized:literal)),+ $(,)?) => {
        /// One of the 20 most popular phone models of the SoundCity user
        /// base (Figure 9 of the paper), in the paper's row order.
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        #[allow(missing_docs, reason = "variant names mirror the paper's table rows")]
        pub enum DeviceModel {
            $($variant),+
        }

        impl DeviceModel {
            /// All 20 models, in the paper's row order (Figure 9).
            pub const ALL: [DeviceModel; 20] = [$(DeviceModel::$variant),+];

            /// The model label exactly as printed in Figure 9
            /// (e.g. `"SAMSUNG GT-I9505"`).
            pub fn label(self) -> &'static str {
                match self {
                    $(DeviceModel::$variant => $label),+
                }
            }

            /// The device manufacturer (the first word of the label).
            pub fn manufacturer(self) -> &'static str {
                match self {
                    $(DeviceModel::$variant => $maker),+
                }
            }

            /// The per-model statistics published in Figure 9.
            pub fn paper_stats(self) -> ModelPaperStats {
                match self {
                    $(DeviceModel::$variant => ModelPaperStats {
                        devices: $devices,
                        measurements: $measurements,
                        localized: $localized,
                    }),+
                }
            }
        }

        impl FromStr for DeviceModel {
            type Err = ParseEnumError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($label => Ok(DeviceModel::$variant),)+
                    _ => Err(ParseEnumError::new("DeviceModel", s)),
                }
            }
        }
    };
}

device_models![
    (
        SamsungGtI9505,
        "SAMSUNG GT-I9505",
        "SAMSUNG",
        253,
        2_346_755,
        1_014_261
    ),
    (
        SamsungSmG900f,
        "SAMSUNG SM-G900F",
        "SAMSUNG",
        211,
        2_048_523,
        847_591
    ),
    (SonyD5803, "SONY D5803", "SONY", 112, 1_097_018, 778_732),
    (LgeLgD855, "LGE LG-D855", "LGE", 87, 1_098_479, 669_446),
    (
        OneplusA0001,
        "ONEPLUS A0001",
        "ONEPLUS",
        84,
        1_177_343,
        657_992
    ),
    (LgeNexus5, "LGE NEXUS 5", "LGE", 129, 843_472, 530_597),
    (
        SamsungGtI9300,
        "SAMSUNG GT-I9300",
        "SAMSUNG",
        185,
        1_432_594,
        528_950
    ),
    (
        SamsungSmG901f,
        "SAMSUNG SM-G901F",
        "SAMSUNG",
        73,
        1_113_082,
        524_761
    ),
    (SonyD6603, "SONY D6603", "SONY", 51, 815_239, 524_287),
    (
        SamsungSmN9005,
        "SAMSUNG SM-N9005",
        "SAMSUNG",
        134,
        1_448_701,
        503_379
    ),
    (
        SamsungGtI9195,
        "SAMSUNG GT-I9195",
        "SAMSUNG",
        174,
        2_192_925,
        464_916
    ),
    (
        SamsungSmG800f,
        "SAMSUNG SM-G800F",
        "SAMSUNG",
        66,
        989_210,
        393_045
    ),
    (HtcOneM8, "HTC HTCONE_M8", "HTC", 76, 854_593, 177_342),
    (LgeNexus4, "LGE NEXUS 4", "LGE", 67, 702_895, 380_751),
    (SonyD6503, "SONY D6503", "SONY", 52, 716_627, 200_360),
    (
        SamsungSmN910f,
        "SAMSUNG SM-N910F",
        "SAMSUNG",
        116,
        812_207,
        344_337
    ),
    (
        SamsungGtI9305,
        "SAMSUNG GT-I9305",
        "SAMSUNG",
        39,
        692_420,
        209_917
    ),
    (LgeLgD802, "LGE LG-D802", "LGE", 46, 728_469, 278_089),
    (SonyD2303, "SONY D2303", "SONY", 40, 585_396, 221_686),
    (
        SamsungGtP5210,
        "SAMSUNG GT-P5210",
        "SAMSUNG",
        96,
        1_412_188,
        305_735
    ),
];

impl DeviceModel {
    /// Total devices across the top-20 models (Figure 9 bottom row: 2 091).
    pub fn total_devices() -> u64 {
        Self::ALL.iter().map(|m| m.paper_stats().devices).sum()
    }

    /// Total measurements across the top-20 models (23 108 136).
    pub fn total_measurements() -> u64 {
        Self::ALL.iter().map(|m| m.paper_stats().measurements).sum()
    }

    /// Total localized measurements across the top-20 models (9 556 174).
    pub fn total_localized() -> u64 {
        Self::ALL.iter().map(|m| m.paper_stats().localized).sum()
    }

    /// Stable index of the model in the paper's row order, `0..20`.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&m| m == self)
            .expect("model in ALL")
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_exactly_twenty_models() {
        assert_eq!(DeviceModel::ALL.len(), 20);
    }

    #[test]
    fn totals_match_figure_9() {
        assert_eq!(DeviceModel::total_devices(), 2_091);
        assert_eq!(DeviceModel::total_measurements(), 23_108_136);
        assert_eq!(DeviceModel::total_localized(), 9_556_174);
    }

    #[test]
    fn about_40_percent_localized_overall() {
        let frac = DeviceModel::total_localized() as f64 / DeviceModel::total_measurements() as f64;
        assert!((0.40..0.43).contains(&frac), "localized fraction {frac}");
    }

    #[test]
    fn labels_parse_back() {
        for model in DeviceModel::ALL {
            let parsed: DeviceModel = model.label().parse().unwrap();
            assert_eq!(parsed, model);
        }
    }

    #[test]
    fn unknown_label_fails_to_parse() {
        let err = "APPLE IPHONE6".parse::<DeviceModel>().unwrap_err();
        assert_eq!(err.type_name(), "DeviceModel");
    }

    #[test]
    fn manufacturer_is_label_prefix() {
        for model in DeviceModel::ALL {
            assert!(
                model.label().starts_with(model.manufacturer()),
                "{model}: manufacturer not a prefix"
            );
        }
    }

    #[test]
    fn index_round_trips() {
        for (i, model) in DeviceModel::ALL.iter().enumerate() {
            assert_eq!(model.index(), i);
        }
    }

    #[test]
    fn localized_fraction_bounds() {
        for model in DeviceModel::ALL {
            let f = model.paper_stats().localized_fraction();
            assert!((0.0..=1.0).contains(&f), "{model}: {f}");
        }
        let zero = ModelPaperStats {
            devices: 0,
            measurements: 0,
            localized: 0,
        };
        assert_eq!(zero.localized_fraction(), 0.0);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(DeviceModel::OneplusA0001.to_string(), "ONEPLUS A0001");
    }

    #[test]
    fn serde_round_trip() {
        let m = DeviceModel::SonyD5803;
        let json = serde_json::to_string(&m).unwrap();
        let back: DeviceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
