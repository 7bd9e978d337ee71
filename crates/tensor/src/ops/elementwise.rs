//! Elementwise kernels. `map_inplace` and `axpy` fork over large slices;
//! `map` and `zip` allocate their output and run on the calling thread.

use super::fork_rows;

/// `out[i] = f(a[i])`.
pub fn map(a: &[f32], f: impl Fn(f32) -> f32) -> Vec<f32> {
    a.iter().map(|&x| f(x)).collect()
}

/// `a[i] = f(a[i])`.
pub fn map_inplace(a: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    let work = size_of_val(a);
    fork_rows(a, 1, work, |_, share| {
        for x in share {
            *x = f(*x);
        }
    });
}

/// `out[i] = f(a[i], b[i])`. Caller guarantees equal lengths.
pub fn zip(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// `a[i] += alpha * b[i]`. Caller guarantees equal lengths.
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    let work = size_of_val(a);
    fork_rows(a, 1, work, |first, share| {
        for (x, &y) in share.iter_mut().zip(&b[first..]) {
            *x += alpha * y;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::MIN_SHARE;

    #[test]
    fn map_small_and_large_agree() {
        let small: Vec<f32> = (0..10).map(|x| x as f32).collect();
        let large: Vec<f32> = (0..MIN_SHARE / 2 + 1).map(|x| x as f32).collect();
        assert_eq!(
            map(&small, |x| x * 2.0),
            small.iter().map(|x| x * 2.0).collect::<Vec<_>>()
        );
        let mapped = map(&large, |x| x + 1.0);
        assert_eq!(mapped[0], 1.0);
        assert_eq!(mapped[large.len() - 1], large[large.len() - 1] + 1.0);
    }

    #[test]
    fn map_inplace_matches_map() {
        let mut a: Vec<f32> = (0..100).map(|x| x as f32).collect();
        let expected = map(&a, |x| x * x);
        map_inplace(&mut a, |x| x * x);
        assert_eq!(a, expected);
    }

    #[test]
    fn zip_pairs_elements() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        assert_eq!(zip(&a, &b, |x, y| y - x), vec![9.0, 18.0, 27.0]);
    }

    #[test]
    fn axpy_parallel_path() {
        let n = MIN_SHARE / 2 + 7; // two minimum shares of elements: forks
        let mut a = vec![1.0f32; n];
        let b = vec![2.0f32; n];
        axpy(&mut a, 0.5, &b);
        assert!(a.iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }
}
