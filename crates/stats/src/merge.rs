//! Mergeable grouped samples — the sample representation that makes
//! out-of-core fitting possible.
//!
//! A [`GroupedSample`] stores a sample multiset as sorted `(value, count)`
//! runs. Two grouped samples over disjoint sub-streams merge into exactly
//! the grouped sample of the union: the runs are merged like sorted lists
//! and equal values add their counts. Counts are integers, values are
//! compared exactly, and no float arithmetic touches the data — so the
//! merge is **exact**, commutative and associative, and a
//! [`FitContext`](crate::fit::FitContext) built from the merged runs is
//! byte-identical to one built from the concatenated raw samples.
//!
//! ## The exactness boundary
//!
//! Exactness costs memory proportional to the number of *distinct* values.
//! Communication traces are tick-quantized, so the distinct-gap count
//! saturates at a few thousand runs regardless of trace length and the
//! exact representation *is* the constant-memory representation. A
//! stream where every value is distinct grows one run per observation;
//! nothing in the pipeline folds runs to bound that.

/// A sample multiset stored as sorted, deduplicated `(value, count)` runs.
///
/// The streaming characterization pipeline builds one `GroupedSample` per
/// trace block (in parallel) and folds them together with
/// [`merge`](GroupedSample::merge); the result feeds
/// [`FitContext::from_grouped`](crate::fit::FitContext::from_grouped).
///
/// Values must not be NaN (construction asserts, as [`Ecdf`](crate::Ecdf)
/// does).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupedSample {
    values: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl GroupedSample {
    /// An empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Groups a raw sample: one sort, one deduplication pass — exactly the
    /// preprocessing [`FitContext::new`](crate::fit::FitContext::new) used
    /// to do inline.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "grouped sample contains NaN");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = Self::new();
        for &x in &sorted {
            match out.values.last() {
                Some(&last) if last == x => *out.counts.last_mut().expect("paired") += 1,
                _ => {
                    out.values.push(x);
                    out.counts.push(1);
                }
            }
        }
        out.total = sorted.len() as u64;
        out
    }

    /// Adds `count` observations of `value` (a boundary gap between two
    /// merged blocks, typically).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn insert(&mut self, value: f64, count: u64) {
        assert!(!value.is_nan(), "grouped sample contains NaN");
        if count == 0 {
            return;
        }
        let i = self.values.partition_point(|&v| v < value);
        if self.values.get(i) == Some(&value) {
            self.counts[i] += count;
        } else {
            self.values.insert(i, value);
            self.counts.insert(i, count);
        }
        self.total += count;
    }

    /// Merges another grouped sample into this one: a sorted-run union
    /// with counts added on equal values. Exact, and therefore commutative
    /// and associative, insensitive to block order and grouping.
    pub fn merge(&mut self, other: &GroupedSample) {
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            self.values = other.values.clone();
            self.counts = other.counts.clone();
            self.total = other.total;
            return;
        }
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        let mut counts = Vec::with_capacity(values.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            let (a, b) = (self.values[i], other.values[j]);
            if a < b {
                values.push(a);
                counts.push(self.counts[i]);
                i += 1;
            } else if b < a {
                values.push(b);
                counts.push(other.counts[j]);
                j += 1;
            } else {
                values.push(a);
                counts.push(self.counts[i] + other.counts[j]);
                i += 1;
                j += 1;
            }
        }
        values.extend_from_slice(&self.values[i..]);
        counts.extend_from_slice(&self.counts[i..]);
        values.extend_from_slice(&other.values[j..]);
        counts.extend_from_slice(&other.counts[j..]);
        self.values = values;
        self.counts = counts;
        self.total += other.total;
    }

    /// The distinct values, sorted ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The per-value multiplicities, parallel to
    /// [`values`](GroupedSample::values).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations represented.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of runs (distinct values).
    pub fn distinct_len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample holds no observations.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_groups_and_sorts() {
        let g = GroupedSample::from_samples(&[3.0, 1.0, 3.0, 2.0, 3.0]);
        assert_eq!(g.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(g.counts(), &[1, 1, 3]);
        assert_eq!(g.total(), 5);
    }

    #[test]
    fn merge_is_a_multiset_union() {
        let mut a = GroupedSample::from_samples(&[1.0, 2.0, 2.0]);
        let b = GroupedSample::from_samples(&[2.0, 3.0]);
        a.merge(&b);
        assert_eq!(a, GroupedSample::from_samples(&[1.0, 2.0, 2.0, 2.0, 3.0]));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let x = GroupedSample::from_samples(&[4.0, 5.0]);
        let mut left = GroupedSample::new();
        left.merge(&x);
        assert_eq!(left, x);
        let mut right = x.clone();
        right.merge(&GroupedSample::new());
        assert_eq!(right, x);
    }

    #[test]
    fn insert_is_a_single_value_merge() {
        let mut g = GroupedSample::from_samples(&[1.0, 3.0]);
        g.insert(2.0, 2);
        g.insert(3.0, 1);
        g.insert(9.0, 0); // no-op
        assert_eq!(g, GroupedSample::from_samples(&[1.0, 2.0, 2.0, 3.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = GroupedSample::from_samples(&[1.0, f64::NAN]);
    }
}
