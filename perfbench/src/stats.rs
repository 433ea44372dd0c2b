//! Small statistics helpers: percentiles that refuse to extrapolate,
//! medians, and an order-independent response digest.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0..100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `p` has at least [`TAIL_SAMPLES`] samples above its rank in a
/// sample of `n`.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + TAIL_SAMPLES
}

/// The highest of `candidates` (ascending percentiles) that keeps at
/// least [`TAIL_SAMPLES`] samples beyond it, with its value.
pub fn highest_supported(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .rev()
        .find(|&&p| tail_supported(sorted.len(), p))
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// `latency_p90_ms` is reported only from 100 operations on.
pub fn p90(sorted: &[f64]) -> Option<f64> {
    if sorted.len() >= 100 && tail_supported(sorted.len(), 90.0) {
        percentile(sorted, 90.0)
    } else {
        None
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a run's responses: each response is hashed together with
/// its request index, and the hashes are combined in request order, so
/// which connection carried a request (and when) cannot change it.
pub fn response_digest<'a>(responses: impl IntoIterator<Item = (usize, &'a [u8])>) -> u64 {
    let mut hashed: Vec<(usize, u64)> = responses
        .into_iter()
        .map(|(i, body)| (i, fnv1a(body)))
        .collect();
    hashed.sort_unstable();
    hashed.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(i, b)| {
        fnv1a(&[h.to_le_bytes(), (i as u64).to_le_bytes(), b.to_le_bytes()].concat())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Rng;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        let cands = [50.0, 90.0, 95.0, 99.0];
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(highest_supported(&ramp(100), &cands), Some((90.0, 90.0)));
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        assert_eq!(highest_supported(&ramp(200), &cands), Some((95.0, 190.0)));
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(highest_supported(&ramp(1000), &cands), Some((99.0, 990.0)));
        // 15 samples: not even the median keeps 10 beyond it.
        assert_eq!(highest_supported(&ramp(15), &cands), None);
        assert_eq!(highest_supported(&ramp(20), &cands), Some((50.0, 10.0)));
    }

    #[test]
    fn p90_is_omitted_below_100_ops() {
        assert_eq!(p90(&ramp(99)), None);
        assert_eq!(p90(&ramp(40)), None);
        assert_eq!(p90(&ramp(100)), Some(90.0));
        assert_eq!(p90(&ramp(1000)), Some(900.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_ignores_which_connection_served_which_request() {
        let bodies: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("body-{}", i % 7).into_bytes())
            .collect();
        let serial = response_digest(bodies.iter().enumerate().map(|(i, b)| (i, b.as_slice())));
        for seed in 0..20 {
            // Deal the requests over 1..4 connections in a seeded
            // interleaving, then feed the digest in completion order.
            let mut rng = Rng::new(seed);
            let conns = 1 + rng.below(4);
            let mut queues: Vec<Vec<usize>> = vec![Vec::new(); conns];
            for i in 0..bodies.len() {
                queues[rng.below(conns)].push(i);
            }
            let mut completion = Vec::new();
            while queues.iter().any(|q| !q.is_empty()) {
                let c = rng.below(conns);
                if !queues[c].is_empty() {
                    completion.push(queues[c].remove(0));
                }
            }
            let d = response_digest(completion.iter().map(|&i| (i, bodies[i].as_slice())));
            assert_eq!(d, serial, "seed {seed}");
        }
        // But a different body does change it.
        let mut other = bodies.clone();
        other[5] = b"changed".to_vec();
        assert_ne!(
            response_digest(other.iter().enumerate().map(|(i, b)| (i, b.as_slice()))),
            serial
        );
    }
}
