//! Order statistics over latency samples.

/// The `q` quantile (0..=1) of `v` by nearest rank on the sorted samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The tail quantile `q` of `v`, checked to leave at least ten samples
/// beyond it (the rule every reported tail follows).
pub fn tail(v: &[f64], q: f64, what: &str) -> f64 {
    let beyond = v.len() as f64 * (1.0 - q);
    if beyond < 10.0 {
        eprintln!(
            "warning: {what}: p{} over {} samples leaves {beyond:.1} beyond it (< 10)",
            q * 100.0,
            v.len()
        );
    }
    quantile(v, q)
}
