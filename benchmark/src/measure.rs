//! Latency samples of one measured window and the numbers derived from
//! them.
//!
//! A window is cut into [`SLICES`] equal slices and each timing metric is
//! the median of its per-slice values: one descheduling or one slow
//! checkpoint moves one slice, not the reported number. The slices play
//! the part of the issue's "repetitions" inside a single bounded run.

use std::time::Duration;

use crate::stats::{median, percentile, sorted};

pub const SLICES: usize = 5;

/// One completed operation: when it ended (ns since the window opened),
/// how long it took, how many effective units (updates) it carried, and
/// which class of operation it was (the view a read asked for; 0 for a
/// burst). Sixteen bytes, so that a quarter of a million samples stay a
/// small and steady part of `peak_rss_mb`.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub end_ns: u64,
    /// Saturates at 4.29 s, far beyond any operation here.
    pub lat_ns: u32,
    pub units: u16,
    pub class: u16,
}

#[derive(Clone, Debug)]
pub struct Samples(pub Vec<Sample>);

impl Default for Samples {
    /// Room for a window's worth up front: a vector that doubles as it
    /// grows would copy itself at points that differ from run to run and
    /// show up in the memory high-water mark.
    fn default() -> Self {
        Samples(Vec::with_capacity(1 << 19))
    }
}

impl Samples {
    pub fn push(&mut self, end: Duration, lat: Duration, units: u32, class: u16) {
        self.0.push(Sample {
            end_ns: end.as_nanos() as u64,
            lat_ns: u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX),
            units: u16::try_from(units).unwrap_or(u16::MAX),
            class,
        });
    }

    pub fn units(&self) -> u64 {
        self.0.iter().map(|s| u64::from(s.units)).sum()
    }

    /// Samples grouped by the slice of `[0, window)` their end falls in.
    /// Operations that end after the window closed (the one in flight at
    /// the deadline) are left out.
    fn slices(&self, window: Duration) -> Vec<Vec<Sample>> {
        let w = window.as_nanos() as u64;
        let mut out = vec![Vec::new(); SLICES];
        for s in &self.0 {
            if s.end_ns < w {
                out[(s.end_ns as u128 * SLICES as u128 / w as u128) as usize].push(*s);
            }
        }
        // Several threads' samples may be interleaved: order each slice by
        // completion time.
        for slice in &mut out {
            slice.sort_by_key(|s| s.end_ns);
        }
        out
    }

    /// Units completed per second: median over the slices. Within a slice
    /// the rate is taken between its first and last completion, so the
    /// value moves continuously with the timestamps and is not quantized
    /// by the slice length.
    pub fn rate_per_s(&self, window: Duration) -> f64 {
        median(&self.slice_rates(window))
    }

    /// The rate of each slice, in order.
    pub fn slice_rates(&self, window: Duration) -> Vec<f64> {
        let slice_s = window.as_secs_f64() / SLICES as f64;
        self.slices(window)
            .iter()
            .map(|s| match (s.first(), s.last()) {
                (Some(a), Some(b)) if b.end_ns > a.end_ns => {
                    let units: f64 = s[1..].iter().map(|x| f64::from(x.units)).sum();
                    units / ((b.end_ns - a.end_ns) as f64 / 1e9)
                }
                _ => s.iter().map(|x| f64::from(x.units)).sum::<f64>() / slice_s,
            })
            .collect()
    }

    /// The `p`-th latency percentile in µs over every sample that ended
    /// inside the window. The percentile is taken per class and the
    /// classes are averaged: reads of a 20k-tuple view and of a 10k-tuple
    /// view form two modes of equal weight, and the percentile of such a
    /// mixture flips between them from run to run, while each mode's own
    /// percentile is steady. (Pooled, not per slice: a tail percentile of
    /// a fifth of the samples is the noisier estimate.)
    pub fn lat_us(&self, window: Duration, p: f64) -> f64 {
        let w = window.as_nanos() as u64;
        let mut by_class: std::collections::BTreeMap<u16, Vec<f64>> =
            std::collections::BTreeMap::new();
        for x in self.0.iter().filter(|x| x.end_ns < w) {
            by_class
                .entry(x.class)
                .or_default()
                .push(f64::from(x.lat_ns));
        }
        if by_class.is_empty() {
            return 0.0;
        }
        let n = by_class.len() as f64;
        by_class
            .into_values()
            .map(|v| percentile(&sorted(v), p) / 1e3)
            .sum::<f64>()
            / n
    }

    /// Fewest samples any slice holds — printed beside the percentiles so
    /// a reader can tell what they rest on.
    pub fn min_slice_len(&self, window: Duration) -> usize {
        self.slices(window).iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_percentiles_are_medians_over_slices() {
        let window = Duration::from_secs(5);
        let mut s = Samples::default();
        // Slice k holds 10·(k+1) samples of latency (k+1) µs, 2 units each.
        for k in 0..5u64 {
            for i in 0..10 * (k + 1) {
                s.push(
                    Duration::from_millis(k * 1000 + i),
                    Duration::from_micros(k + 1),
                    2,
                    0,
                );
            }
        }
        // One sample past the deadline is ignored.
        s.push(Duration::from_millis(5001), Duration::from_secs(1), 2, 0);
        // Slice 2: 30 completions 1 ms apart, 2 units each → 2000 units/s.
        assert!((s.rate_per_s(window) - 2000.0).abs() < 1e-6);
        // 150 samples in the window: the 75th is in slice 3 (4 µs).
        assert_eq!(s.lat_us(window, 50.0), 4.0);
        assert_eq!(s.min_slice_len(window), 10);
        assert_eq!(s.units(), 2 * (150 + 1));
    }

    #[test]
    fn percentiles_are_taken_per_class_and_averaged() {
        let window = Duration::from_secs(5);
        let mut s = Samples::default();
        // Class 0 takes 10 µs, class 1 takes 30 µs, half the samples each:
        // the mixture's median is either; the per-class mean is 20.
        for i in 0..100u64 {
            let class = (i % 2) as u16;
            s.push(
                Duration::from_millis(i * 40),
                Duration::from_micros(10 + 20 * u64::from(class)),
                1,
                class,
            );
        }
        assert_eq!(s.lat_us(window, 50.0), 20.0);
    }
}
