//! Edge-case unit tests for the numeric kernels — the degenerate inputs the
//! randomized property tests are unlikely to generate: empty and
//! single-element slices, constant and two-point fits, and percentile
//! behavior on tiny sample sets.

use dscs_simcore::fit::polyfit;
use dscs_simcore::stats::{arithmetic_mean, geometric_mean, Summary};

#[test]
#[should_panic(expected = "empty set is undefined")]
fn geometric_mean_of_empty_slice_panics() {
    geometric_mean(&[]);
}

#[test]
fn geometric_mean_of_single_element_is_the_element() {
    assert_eq!(geometric_mean(&[7.25]), 7.25);
}

#[test]
fn geometric_mean_is_exact_on_powers_of_two() {
    // ln/exp roundtrip must not drift measurably on a friendly case.
    let g = geometric_mean(&[1.0, 4.0, 16.0]);
    assert!((g - 4.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "positive")]
fn geometric_mean_rejects_zero() {
    geometric_mean(&[1.0, 0.0]);
}

#[test]
#[should_panic(expected = "empty set is undefined")]
fn arithmetic_mean_of_empty_slice_panics() {
    arithmetic_mean(&[]);
}

#[test]
fn polyfit_degree_zero_on_constant_data_recovers_the_constant() {
    let pts: Vec<(f64, f64)> = (0..8).map(|i| (i as f64, 42.5)).collect();
    let poly = polyfit(&pts, 0);
    assert_eq!(poly.degree(), 0);
    assert!((poly.coefficients()[0] - 42.5).abs() < 1e-9);
    assert!((poly.eval(100.0) - 42.5).abs() < 1e-9);
}

#[test]
fn polyfit_linear_on_constant_data_has_zero_slope() {
    let pts: Vec<(f64, f64)> = (0..8).map(|i| (i as f64, -3.0)).collect();
    let poly = polyfit(&pts, 1);
    assert!(poly.coefficients()[1].abs() < 1e-9, "slope must vanish");
    assert!((poly.coefficients()[0] + 3.0).abs() < 1e-9);
}

#[test]
fn polyfit_two_points_is_the_interpolating_line() {
    let poly = polyfit(&[(1.0, 2.0), (3.0, 8.0)], 1);
    assert!((poly.eval(1.0) - 2.0).abs() < 1e-9);
    assert!((poly.eval(3.0) - 8.0).abs() < 1e-9);
    assert!((poly.coefficients()[1] - 3.0).abs() < 1e-9);
}

#[test]
#[should_panic(expected = "singular")]
fn polyfit_identical_x_values_is_singular() {
    polyfit(&[(2.0, 1.0), (2.0, 5.0)], 1);
}

#[test]
#[should_panic(expected = "empty sample set")]
fn summary_of_empty_samples_panics() {
    Summary::from_samples(&[]);
}

#[test]
fn summary_of_single_sample_collapses_all_statistics() {
    let s = Summary::from_samples(&[3.5]);
    assert_eq!(s.count(), 1);
    assert_eq!(s.min(), 3.5);
    assert_eq!(s.max(), 3.5);
    assert_eq!(s.mean(), 3.5);
    // Every quantile of a single sample is that sample.
    for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(s.quantile(q), 3.5, "quantile {q}");
    }
}

#[test]
fn summary_of_two_samples_interpolates_between_them() {
    let s = Summary::from_samples(&[10.0, 20.0]);
    assert_eq!(s.quantile(0.0), 10.0);
    assert_eq!(s.quantile(1.0), 20.0);
    assert!((s.p50() - 15.0).abs() < 1e-12);
    assert!((s.quantile(0.25) - 12.5).abs() < 1e-12);
}

#[test]
fn summary_quantile_endpoints_are_min_and_max_on_tiny_samples() {
    for n in 1..=5 {
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 3.0).collect();
        let s = Summary::from_samples(&values);
        assert_eq!(s.quantile(0.0), s.min(), "n = {n}");
        assert_eq!(s.quantile(1.0), s.max(), "n = {n}");
    }
}

#[test]
#[should_panic(expected = "in [0, 1]")]
fn summary_quantile_out_of_range_panics() {
    Summary::from_samples(&[1.0]).quantile(1.5);
}
