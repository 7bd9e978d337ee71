//! Reduction kernels. They run on the calling thread, in index order, so
//! a float sum is the same bits on every host.

/// Sum of all elements.
pub fn sum(a: &[f32]) -> f32 {
    a.iter().sum()
}

/// Maximum element; negative infinity for an empty slice.
pub fn max(a: &[f32]) -> f32 {
    a.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the first maximum element; 0 for an empty slice.
pub fn argmax(a: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in a.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Dot product. Caller guarantees equal lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_small() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn sum_parallel_matches_sequential() {
        let v: Vec<f32> = (0..(1 << 20) + 100).map(|i| (i % 7) as f32 * 0.5).collect();
        let seq = v.iter().fold(0.0f32, |acc, &x| acc + x);
        assert_eq!(sum(&v).to_bits(), seq.to_bits(), "an in-order sum");
    }

    #[test]
    fn max_and_argmax() {
        let v = [3.0, -1.0, 7.0, 7.0, 2.0];
        assert_eq!(max(&v), 7.0);
        assert_eq!(argmax(&v), 2, "first maximum wins");
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
