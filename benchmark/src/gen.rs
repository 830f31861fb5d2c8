//! Seeded load generation.
//!
//! Everything the product is fed comes from here, as a function of
//! `--seed` alone: a splitmix64 stream drives [`rows`], and each [`Row`]
//! is rendered to the bytes of a stored-observation document
//! ([`document_json`]). The rows are also the benchmark's *own copy* of
//! the data: output checks re-answer queries by scanning them, never by
//! asking the product.

use std::io::Write as _;

pub const MS_PER_MIN: i64 = 60_000;
pub const MS_PER_HOUR: i64 = 60 * MS_PER_MIN;
pub const MS_PER_DAY: i64 = 24 * MS_PER_HOUR;

/// Devices in the paper's deployment (Figure 9 totals).
pub const DEVICES: u64 = 2_091;
/// Share of observations that carry a location fix (Section 5).
const LOCALIZED_SHARE: f64 = 0.40;

/// splitmix64: one `u64` of state, full period, passes BigCrush; the
/// whole load is reproducible from a single seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Roughly normal with mean 0 and standard deviation 1 (sum of 12
    /// uniforms); tails beyond 6 sigma do not occur, which suits noise on
    /// a decibel reading.
    pub fn normalish(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }
}

/// The product's string vocabularies, handed over by the adapter so this
/// file names no product type.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    pub models: Vec<&'static str>,
    pub activities: Vec<&'static str>,
    pub modes: Vec<&'static str>,
    pub providers: Vec<&'static str>,
    pub versions: Vec<&'static str>,
    /// `(lat_min, lat_max, lon_min, lon_max)` of the city, degrees.
    pub bounds: (f64, f64, f64, f64),
}

/// One generated observation. Decimals are kept as scaled integers so the
/// value a JSON parser reads back is exactly the value the checks compute
/// (`625 / 10.0` and `"62.5"` are the same `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub device: u64,
    pub model: usize,
    pub captured_ms: i64,
    pub arrived_ms: i64,
    pub spl_tenths: i64,
    pub location: Option<Fix>,
    pub activity: usize,
    pub mode: usize,
    pub version: usize,
}

/// A generated location fix.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    pub provider: usize,
    pub accuracy_tenths: i64,
    pub lat_e6: i64,
    pub lon_e6: i64,
}

impl Row {
    pub fn spl(&self) -> f64 {
        self.spl_tenths as f64 / 10.0
    }

    pub fn hour(&self) -> i64 {
        self.captured_ms.rem_euclid(MS_PER_DAY) / MS_PER_HOUR
    }

    pub fn day(&self) -> i64 {
        self.captured_ms.div_euclid(MS_PER_DAY)
    }
}

impl Fix {
    pub fn lat(&self) -> f64 {
        self.lat_e6 as f64 / 1e6
    }

    pub fn lon(&self) -> f64 {
        self.lon_e6 as f64 / 1e6
    }

    pub fn accuracy(&self) -> f64 {
        self.accuracy_tenths as f64 / 10.0
    }
}

/// Transmission delay in ms: most observations arrive within a minute,
/// some within the hour, a tail after hours offline (the paper's Fig. 17
/// shape, not its exact quantiles).
fn delay_ms(rng: &mut SplitMix64) -> i64 {
    match rng.below(100) {
        0..=79 => rng.between(1_000, MS_PER_MIN),
        80..=94 => rng.between(MS_PER_MIN, MS_PER_HOUR),
        _ => rng.between(MS_PER_HOUR, 12 * MS_PER_HOUR),
    }
}

/// `n` rows in arrival order, one every `step_ms` from `first_arrival_ms`.
/// `spl_tenths` decides each reading from the row's fix and capture hour
/// (the analysis workload samples its truth field there; the others draw
/// at random).
pub fn rows(
    rng: &mut SplitMix64,
    vocab: &Vocabulary,
    n: usize,
    first_arrival_ms: i64,
    step_ms: i64,
    mut spl_tenths: impl FnMut(&mut SplitMix64, Option<&Fix>, i64) -> i64,
) -> Vec<Row> {
    let (lat_min, lat_max, lon_min, lon_max) = vocab.bounds;
    // Keep fixes 5 % inside the bounds: assimilation rejects observations
    // outside its grid, and the workloads must not fail an operation.
    let inset = |lo: f64, hi: f64, u: f64| ((lo + (hi - lo) * (0.05 + 0.9 * u)) * 1e6) as i64;
    (0..n)
        .map(|i| {
            let arrived_ms = first_arrival_ms + i as i64 * step_ms;
            let captured_ms = (arrived_ms - delay_ms(rng)).max(0);
            let device = rng.below(DEVICES);
            let location = (rng.unit() < LOCALIZED_SHARE).then(|| Fix {
                provider: rng.below(vocab.providers.len() as u64) as usize,
                accuracy_tenths: rng.between(30, 5_000),
                lat_e6: inset(lat_min, lat_max, rng.unit()),
                lon_e6: inset(lon_min, lon_max, rng.unit()),
            });
            let hour = captured_ms.rem_euclid(MS_PER_DAY) / MS_PER_HOUR;
            Row {
                device,
                // A device keeps its model for the whole run.
                model: (device.wrapping_mul(7) % vocab.models.len() as u64) as usize,
                captured_ms,
                arrived_ms,
                spl_tenths: spl_tenths(rng, location.as_ref(), hour),
                location,
                activity: rng.below(vocab.activities.len() as u64) as usize,
                mode: rng.below(vocab.modes.len() as u64) as usize,
                version: rng.below(vocab.versions.len() as u64) as usize,
            }
        })
        .collect()
}

/// A reading drawn uniformly from 30.0 to 89.9 dB(A).
pub fn random_spl(rng: &mut SplitMix64, _fix: Option<&Fix>, _hour: i64) -> i64 {
    rng.between(300, 899)
}

/// Appends the stored-observation document for `row`: the 18 fields of
/// GoFlow's `ObservationRecord::to_document`, in its order, about 300
/// bytes. Written by hand so the product's JSON writer is not part of
/// making its own input.
pub fn document_json(row: &Row, vocab: &Vocabulary, out: &mut Vec<u8>) {
    let day = row.day();
    // Writing to a Vec cannot fail.
    let _ = write!(
        out,
        "{{\"device\":{},\"user\":{},\"model\":\"{}\",\"captured_ms\":{},\"arrived_ms\":{},\
         \"delay_ms\":{},\"hour\":{},\"day\":{},\"month\":{},\"spl\":{:.1},",
        row.device,
        row.device,
        vocab.models[row.model],
        row.captured_ms,
        row.arrived_ms,
        row.arrived_ms - row.captured_ms,
        row.hour(),
        day,
        day.div_euclid(30),
        row.spl(),
    );
    let _ = match &row.location {
        Some(fix) => write!(
            out,
            "\"localized\":true,\"provider\":\"{}\",\"accuracy\":{:.1},\"lat\":{:.6},\"lon\":{:.6},",
            vocab.providers[fix.provider],
            fix.accuracy(),
            fix.lat(),
            fix.lon(),
        ),
        None => write!(
            out,
            "\"localized\":false,\"provider\":null,\"accuracy\":null,\"lat\":null,\"lon\":null,"
        ),
    };
    let _ = write!(
        out,
        "\"activity\":\"{}\",\"mode\":\"{}\",\"app_version\":\"{}\"}}",
        vocab.activities[row.activity], vocab.modes[row.mode], vocab.versions[row.version],
    );
}

/// The documents of `rows`, one byte string each.
pub fn documents(rows: &[Row], vocab: &Vocabulary) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|row| {
            let mut out = Vec::with_capacity(320);
            document_json(row, vocab, &mut out);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        crate::adapter::vocabulary()
    }

    fn payloads(seed: u64) -> Vec<Vec<u8>> {
        let vocab = vocab();
        let rows = rows(
            &mut SplitMix64::new(seed),
            &vocab,
            500,
            0,
            4_000,
            random_spl,
        );
        documents(&rows, &vocab)
    }

    #[test]
    fn same_seed_gives_byte_identical_payloads() {
        assert_eq!(payloads(7), payloads(7));
    }

    #[test]
    fn different_seed_gives_different_payloads() {
        assert_ne!(payloads(7), payloads(8));
    }

    #[test]
    fn documents_carry_the_eighteen_stored_fields() {
        let text = String::from_utf8(payloads(1).swap_remove(0)).unwrap();
        for key in [
            "device",
            "user",
            "model",
            "captured_ms",
            "arrived_ms",
            "delay_ms",
            "hour",
            "day",
            "month",
            "spl",
            "localized",
            "provider",
            "accuracy",
            "lat",
            "lon",
            "activity",
            "mode",
            "app_version",
        ] {
            assert!(
                text.contains(&format!("\"{key}\":")),
                "{key} missing in {text}"
            );
        }
        assert_eq!(text.matches("\":").count(), 18);
    }

    #[test]
    fn about_forty_percent_are_localized_and_sizes_are_near_300_bytes() {
        let vocab = vocab();
        let rows = rows(
            &mut SplitMix64::new(3),
            &vocab,
            20_000,
            0,
            4_000,
            random_spl,
        );
        let localized = rows.iter().filter(|r| r.location.is_some()).count();
        assert!((7_600..=8_400).contains(&localized), "{localized}");
        let bytes: usize = documents(&rows, &vocab).iter().map(Vec::len).sum();
        let mean = bytes / rows.len();
        assert!((280..=330).contains(&mean), "{mean}");
    }

    #[test]
    fn scaled_decimals_read_back_exactly() {
        for tenths in [300i64, 625, 899, 301, 777] {
            let text = format!("{:.1}", tenths as f64 / 10.0);
            assert_eq!(text.parse::<f64>().unwrap(), tenths as f64 / 10.0);
        }
        for e6 in [48_815_001i64, 2_224_999, 48_901_337] {
            let text = format!("{:.6}", e6 as f64 / 1e6);
            assert_eq!(text.parse::<f64>().unwrap(), e6 as f64 / 1e6);
        }
    }
}
