//! Adam optimiser (Kingma & Ba, 2014), the optimiser used by the paper.
//!
//! The optimiser keeps first/second-moment state per *parameter key*. Models
//! register each trainable matrix under a stable key (its index in the model's
//! parameter list) and call [`Adam::step`] once per parameter per update.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Hyper-parameters for the Adam optimiser.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct AdamConfig {
    /// Learning rate (`alpha`).
    pub learning_rate: f32,
    /// Exponential decay rate for the first moment estimate.
    pub beta1: f32,
    /// Exponential decay rate for the second moment estimate.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
    /// L2 weight decay applied to the gradient (0 disables it).
    pub weight_decay: f32,
    /// Gradient clipping threshold on the global L2 norm (0 disables it).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.0,
            grad_clip: 5.0,
        }
    }
}

/// Adam optimiser with per-key moment state.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    /// Global step counter, shared by all parameters.
    t: u64,
    /// First (m) and second (v) moment estimates keyed by parameter id.
    moments: HashMap<usize, (Matrix, Matrix)>,
}

impl Adam {
    /// Create an optimiser with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Self {
            config,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Begin a new optimisation step. Must be called once before the
    /// per-parameter [`Adam::step`] calls of one update.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply one Adam update to `param` given its gradient.
    ///
    /// # Panics
    /// Panics if `param` and `grad` shapes differ, or if `begin_step` has not
    /// been called yet.
    pub fn step(&mut self, key: usize, param: &mut Matrix, grad: &Matrix) {
        assert!(
            self.t > 0,
            "Adam::begin_step must be called before Adam::step"
        );
        assert_eq!(
            param.shape(),
            grad.shape(),
            "parameter/gradient shape mismatch"
        );
        let cfg = self.config;

        let (m, v) = self.moments.entry(key).or_insert_with(|| {
            (
                Matrix::zeros(param.rows(), param.cols()),
                Matrix::zeros(param.rows(), param.cols()),
            )
        });
        assert_eq!(
            m.shape(),
            param.shape(),
            "parameter {key} changed shape between steps"
        );

        // Optional gradient clipping by global norm of this parameter.
        let mut grad_scale = 1.0_f32;
        if cfg.grad_clip > 0.0 {
            let norm = grad.frobenius_norm();
            if norm > cfg.grad_clip {
                grad_scale = cfg.grad_clip / norm;
            }
        }

        let bias1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bias2 = 1.0 - cfg.beta2.powi(self.t as i32);

        let pm = param.as_mut_slice();
        let gm = grad.as_slice();
        let ms = m.as_mut_slice();
        let vs = v.as_mut_slice();
        for i in 0..pm.len() {
            let mut g = gm[i] * grad_scale;
            if cfg.weight_decay > 0.0 {
                g += cfg.weight_decay * pm[i];
            }
            ms[i] = cfg.beta1 * ms[i] + (1.0 - cfg.beta1) * g;
            vs[i] = cfg.beta2 * vs[i] + (1.0 - cfg.beta2) * g * g;
            let m_hat = ms[i] / bias1;
            let v_hat = vs[i] / bias2;
            pm[i] -= cfg.learning_rate * m_hat / (v_hat.sqrt() + cfg.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(x) = (x - 3)^2 should converge to 3.
    #[test]
    fn adam_minimises_quadratic() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.1,
            ..AdamConfig::default()
        });
        let mut x = Matrix::from_vec(1, 1, vec![-4.0]);
        for _ in 0..500 {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x.get(0, 0) - 3.0)]);
            adam.begin_step();
            adam.step(0, &mut x, &grad);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-2, "x = {}", x.get(0, 0));
    }

    #[test]
    fn adam_minimises_multivariate_quadratic() {
        // f(w) = ||w - target||^2 over a 4x3 matrix.
        let target = Matrix::from_fn(4, 3, |r, c| (r as f32) - (c as f32) * 0.5);
        let mut w = Matrix::zeros(4, 3);
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.05,
            ..AdamConfig::default()
        });
        for _ in 0..800 {
            let grad = w.sub(&target).scale(2.0);
            adam.begin_step();
            adam.step(0, &mut w, &grad);
        }
        assert!(w.approx_eq(&target, 5e-2));
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn step_without_begin_panics() {
        let mut adam = Adam::new(AdamConfig::default());
        let mut p = Matrix::zeros(1, 1);
        let g = Matrix::zeros(1, 1);
        adam.step(0, &mut p, &g);
    }

    #[test]
    fn gradient_clipping_limits_update_magnitude() {
        let cfg = AdamConfig {
            learning_rate: 0.1,
            grad_clip: 1.0,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(cfg);
        let mut p = Matrix::zeros(1, 2);
        let huge_grad = Matrix::from_vec(1, 2, vec![1e6, -1e6]);
        adam.begin_step();
        adam.step(0, &mut p, &huge_grad);
        // With clipping the first Adam step magnitude is bounded by the
        // learning rate (|m_hat/sqrt(v_hat)| <= 1 elementwise).
        assert!(p.as_slice().iter().all(|v| v.abs() <= 0.11));
    }

    #[test]
    fn independent_keys_keep_independent_state() {
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 0.1,
            ..AdamConfig::default()
        });
        let mut a = Matrix::from_vec(1, 1, vec![0.0]);
        let mut b = Matrix::from_vec(1, 1, vec![0.0]);
        for _ in 0..50 {
            adam.begin_step();
            adam.step(0, &mut a, &Matrix::from_vec(1, 1, vec![1.0]));
            adam.step(1, &mut b, &Matrix::from_vec(1, 1, vec![-1.0]));
        }
        assert!(a.get(0, 0) < 0.0);
        assert!(b.get(0, 0) > 0.0);
        assert!(
            (a.get(0, 0) + b.get(0, 0)).abs() < 1e-5,
            "symmetric problems should move symmetrically"
        );
    }
}
