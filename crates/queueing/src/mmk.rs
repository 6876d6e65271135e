//! The analytic M/M/k model (Erlang C) and the M/M/1 sojourn distribution.

/// An M/M/k queue: Poisson arrivals, `servers` servers with exponential service times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmkModel {
    /// Number of servers (k ≥ 1).
    pub servers: usize,
    /// Mean service time in seconds (1/μ).
    pub mean_service_s: f64,
}

impl MmkModel {
    /// Per-server utilization ρ = λ / (kμ) at arrival rate `lambda` (per second).
    #[must_use]
    pub fn utilization(&self, lambda: f64) -> f64 {
        lambda * self.mean_service_s / self.servers as f64
    }

    /// The probability that an arrival waits, Erlang's C formula, computed through the
    /// Erlang B recursion B(n) = a·B(n−1) / (n + a·B(n−1)) with a = λ/μ, which stays
    /// stable for any k.  Returns 1 at or beyond saturation.
    #[must_use]
    pub fn wait_probability(&self, lambda: f64) -> f64 {
        let rho = self.utilization(lambda);
        if rho >= 1.0 {
            return 1.0;
        }
        let a = lambda * self.mean_service_s;
        let blocking = (1..=self.servers).fold(1.0, |b, n| a * b / (n as f64 + a * b));
        blocking / (1.0 - rho * (1.0 - blocking))
    }

    /// Mean waiting (queuing) time in seconds, C / (kμ − λ).  Returns
    /// `f64::INFINITY` at or beyond saturation.
    #[must_use]
    pub fn mean_wait_s(&self, lambda: f64) -> f64 {
        if self.utilization(lambda) >= 1.0 {
            return f64::INFINITY;
        }
        self.wait_probability(lambda) / (self.servers as f64 / self.mean_service_s - lambda)
    }
}

/// The `q` quantile of the M/M/1 sojourn time in seconds: the sojourn is exponential
/// with rate μ − λ, so the quantile is −ln(1 − q) / (μ − λ).  Returns `f64::INFINITY`
/// at or beyond saturation.
#[must_use]
pub fn mm1_sojourn_quantile_s(mean_service_s: f64, lambda: f64, q: f64) -> f64 {
    let rate = 1.0 / mean_service_s - lambda;
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    -(1.0 - q).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg1::Mg1Model;

    #[test]
    fn one_server_waits_with_probability_rho_like_mm1() {
        // M/M/1: P(wait) = ρ and W = ρ / (μ − λ), which Pollaczek–Khinchine agrees with.
        let mm1 = MmkModel {
            servers: 1,
            mean_service_s: 0.001,
        };
        let lambda = 700.0;
        assert!((mm1.wait_probability(lambda) - 0.7).abs() < 1e-12);
        let pk = Mg1Model {
            mean_service_s: 0.001,
            service_second_moment: 2e-6,
        };
        assert!((mm1.mean_wait_s(lambda) - pk.mean_wait_s(lambda)).abs() < 1e-12);
        // The sojourn median of M/M/1 is ln 2 / (μ − λ).
        let p50 = mm1_sojourn_quantile_s(0.001, lambda, 0.5);
        assert!((p50 - 2f64.ln() / 300.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_matches_the_textbook_two_server_form() {
        // k = 2: C = 2ρ² / (1 + ρ).
        let mm2 = MmkModel {
            servers: 2,
            mean_service_s: 1.0,
        };
        for lambda in [0.2, 1.0, 1.6] {
            let rho = lambda / 2.0;
            let expected = 2.0 * rho * rho / (1.0 + rho);
            assert!((mm2.wait_probability(lambda) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn pooling_servers_cuts_waiting_at_fixed_utilization() {
        // At the same per-server load, more servers behind one queue make waiting both
        // rarer and shorter; at k = 1 the mean wait is ρ / (μ − λ).
        let rho = 0.8;
        let at = |servers: usize| {
            let model = MmkModel {
                servers,
                mean_service_s: 1.0,
            };
            let lambda = rho * servers as f64;
            assert!((model.utilization(lambda) - rho).abs() < 1e-12);
            (model.wait_probability(lambda), model.mean_wait_s(lambda))
        };
        let (_, w1) = at(1);
        assert!((w1 - rho / (1.0 - rho)).abs() < 1e-12);
        let pooled: Vec<_> = [1, 2, 4, 8, 16].into_iter().map(at).collect();
        for pair in pooled.windows(2) {
            assert!(pair[1].0 < pair[0].0, "P(wait) {pooled:?}");
            assert!(pair[1].1 < pair[0].1, "mean wait {pooled:?}");
        }
    }

    #[test]
    fn saturation_is_certain_waiting_and_infinite_delay() {
        let mm4 = MmkModel {
            servers: 4,
            mean_service_s: 0.01,
        };
        assert_eq!(mm4.wait_probability(400.0), 1.0);
        assert_eq!(mm4.mean_wait_s(500.0), f64::INFINITY);
        assert_eq!(mm1_sojourn_quantile_s(0.01, 100.0, 0.5), f64::INFINITY);
    }
}
