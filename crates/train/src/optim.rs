//! Optimizers: SGD with momentum and Adam.
//!
//! The optimizers operate on flat parameter/gradient pairs keyed by a stable
//! parameter identifier (layer index + parameter role), so the trainer can
//! feed them the conv/linear weights of a network in any order.
//!
//! Both optimizers can snapshot their full update state as an
//! [`OptimizerState`] and be rebuilt from one, which is what makes training
//! checkpoints resumable with bitwise-identical trajectories: the momentum
//! buffers (SGD) and the first/second moments plus per-parameter timestep
//! (Adam — the timestep drives bias correction) are the only mutable state
//! an optimizer owns. Internally state lives in `BTreeMap`s so capture and
//! serialisation order is deterministic.

use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::tensor::Tensor;
use std::collections::BTreeMap;

/// A stochastic gradient-based optimizer.
pub trait Optimizer {
    /// Applies one update to `param` given `grad`. The `key` identifies the
    /// parameter across calls so stateful optimizers can keep per-parameter
    /// moments.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the gradient shape differs from
    /// the parameter shape.
    fn step(&mut self, key: &str, param: &mut Tensor, grad: &Tensor) -> Result<(), SnnError>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Which optimizer a training run uses. Serialisable so a checkpoint can
/// rebuild the exact update rule on resume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    Adam,
    /// SGD with classical momentum.
    Sgd {
        /// Momentum coefficient in `[0, 1)`; 0 is plain SGD.
        momentum: f32,
    },
}

/// A complete snapshot of an optimizer's mutable state.
///
/// Capturing and restoring this (plus the parameters themselves) reproduces
/// the optimizer's future updates bitwise — there is no hidden state.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// Snapshot of an [`Sgd`] optimizer.
    Sgd {
        /// Learning rate at capture time.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// Per-parameter velocity buffers.
        velocity: BTreeMap<String, Tensor>,
    },
    /// Snapshot of an [`Adam`] optimizer.
    Adam {
        /// Learning rate at capture time.
        lr: f32,
        /// β₁ (first-moment decay).
        beta1: f32,
        /// β₂ (second-moment decay).
        beta2: f32,
        /// Numerical-stability epsilon.
        epsilon: f32,
        /// Per-parameter step counts (drive bias correction).
        steps: BTreeMap<String, u64>,
        /// Per-parameter first moments `m`.
        first_moment: BTreeMap<String, Tensor>,
        /// Per-parameter second moments `v`.
        second_moment: BTreeMap<String, Tensor>,
    },
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: BTreeMap<String, Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: BTreeMap::new(),
        }
    }

    /// Snapshots the full mutable state (learning rate, momentum, velocity
    /// buffers).
    pub fn state(&self) -> OptimizerState {
        OptimizerState::Sgd {
            lr: self.lr,
            momentum: self.momentum,
            velocity: self.velocity.clone(),
        }
    }

    /// Rebuilds an SGD optimizer from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the snapshot is for a
    /// different optimizer kind.
    pub fn from_state(state: OptimizerState) -> Result<Self, SnnError> {
        match state {
            OptimizerState::Sgd {
                lr,
                momentum,
                velocity,
            } => Ok(Sgd {
                lr,
                momentum,
                velocity,
            }),
            OptimizerState::Adam { .. } => Err(SnnError::config(
                "optimizer_state",
                "snapshot is for Adam, not SGD",
            )),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, key: &str, param: &mut Tensor, grad: &Tensor) -> Result<(), SnnError> {
        if param.shape() != grad.shape() {
            return Err(SnnError::shape(param.shape(), grad.shape(), "Sgd::step"));
        }
        let velocity = self
            .velocity
            .entry(key.to_string())
            .or_insert_with(|| Tensor::zeros(param.shape()));
        if velocity.shape() != param.shape() {
            *velocity = Tensor::zeros(param.shape());
        }
        let momentum = self.momentum;
        let lr = self.lr;
        for ((v, p), g) in velocity
            .as_mut_slice()
            .iter_mut()
            .zip(param.as_mut_slice().iter_mut())
            .zip(grad.as_slice().iter())
        {
            *v = momentum * *v + g;
            *p -= lr * *v;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) with bias-corrected moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    steps: BTreeMap<String, u64>,
    first_moment: BTreeMap<String, Tensor>,
    second_moment: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β₁ = 0.9, β₂ = 0.999.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            steps: BTreeMap::new(),
            first_moment: BTreeMap::new(),
            second_moment: BTreeMap::new(),
        }
    }

    /// Snapshots the full mutable state (hyperparameters, per-parameter step
    /// counts and both moment maps).
    pub fn state(&self) -> OptimizerState {
        OptimizerState::Adam {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            epsilon: self.epsilon,
            steps: self.steps.clone(),
            first_moment: self.first_moment.clone(),
            second_moment: self.second_moment.clone(),
        }
    }

    /// Rebuilds an Adam optimizer from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the snapshot is for a
    /// different optimizer kind.
    pub fn from_state(state: OptimizerState) -> Result<Self, SnnError> {
        match state {
            OptimizerState::Adam {
                lr,
                beta1,
                beta2,
                epsilon,
                steps,
                first_moment,
                second_moment,
            } => Ok(Adam {
                lr,
                beta1,
                beta2,
                epsilon,
                steps,
                first_moment,
                second_moment,
            }),
            OptimizerState::Sgd { .. } => Err(SnnError::config(
                "optimizer_state",
                "snapshot is for SGD, not Adam",
            )),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, key: &str, param: &mut Tensor, grad: &Tensor) -> Result<(), SnnError> {
        if param.shape() != grad.shape() {
            return Err(SnnError::shape(param.shape(), grad.shape(), "Adam::step"));
        }
        let t = self.steps.entry(key.to_string()).or_insert(0);
        *t += 1;
        let t = *t;
        let m = self
            .first_moment
            .entry(key.to_string())
            .or_insert_with(|| Tensor::zeros(param.shape()));
        if m.shape() != param.shape() {
            *m = Tensor::zeros(param.shape());
        }
        let v = self
            .second_moment
            .entry(key.to_string())
            .or_insert_with(|| Tensor::zeros(param.shape()));
        if v.shape() != param.shape() {
            *v = Tensor::zeros(param.shape());
        }
        // Re-borrow both maps simultaneously; the entries exist now.
        let m = self
            .first_moment
            .get_mut(key)
            .expect("entry inserted above");
        let v = self
            .second_moment
            .get_mut(key)
            .expect("entry inserted above");
        let (b1, b2) = (self.beta1, self.beta2);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        for (((mi, vi), p), g) in m
            .as_mut_slice()
            .iter_mut()
            .zip(v.as_mut_slice().iter_mut())
            .zip(param.as_mut_slice().iter_mut())
            .zip(grad.as_slice().iter())
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_minimisation(optim: &mut dyn Optimizer, steps: usize) -> f32 {
        // Minimise f(x) = (x - 3)^2 starting from x = 0.
        let mut param = Tensor::zeros(&[1]);
        for _ in 0..steps {
            let x = param.as_slice()[0];
            let grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();
            optim.step("x", &mut param, &grad).unwrap();
        }
        param.as_slice()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1, 0.0);
        let x = quadratic_minimisation(&mut sgd, 100);
        assert!((x - 3.0).abs() < 1e-3, "converged to {x}");
    }

    #[test]
    fn sgd_with_momentum_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.05, 0.9);
        let x = quadratic_minimisation(&mut sgd, 200);
        assert!((x - 3.0).abs() < 1e-2, "converged to {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.2);
        let x = quadratic_minimisation(&mut adam, 300);
        assert!((x - 3.0).abs() < 1e-2, "converged to {x}");
    }

    #[test]
    fn step_rejects_shape_mismatch() {
        let mut sgd = Sgd::new(0.1, 0.0);
        let mut adam = Adam::new(0.1);
        let mut param = Tensor::zeros(&[2]);
        let grad = Tensor::zeros(&[3]);
        assert!(sgd.step("p", &mut param, &grad).is_err());
        assert!(adam.step("p", &mut param, &grad).is_err());
    }

    #[test]
    fn learning_rate_can_be_changed() {
        let mut sgd = Sgd::new(0.1, 0.0);
        assert_eq!(sgd.learning_rate(), 0.1);
        sgd.set_learning_rate(0.01);
        assert_eq!(sgd.learning_rate(), 0.01);
        let mut adam = Adam::new(0.5);
        adam.set_learning_rate(0.05);
        assert_eq!(adam.learning_rate(), 0.05);
    }

    #[test]
    fn separate_keys_keep_separate_state() {
        let mut adam = Adam::new(0.1);
        let mut a = Tensor::zeros(&[1]);
        let mut b = Tensor::zeros(&[1]);
        let ga = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let gb = Tensor::from_vec(vec![-1.0], &[1]).unwrap();
        for _ in 0..10 {
            adam.step("a", &mut a, &ga).unwrap();
            adam.step("b", &mut b, &gb).unwrap();
        }
        assert!(a.as_slice()[0] < 0.0);
        assert!(b.as_slice()[0] > 0.0);
    }

    #[test]
    fn optimizer_trait_is_object_safe() {
        let mut boxed: Box<dyn Optimizer> = Box::new(Sgd::new(0.1, 0.0));
        let mut param = Tensor::zeros(&[1]);
        let grad = Tensor::ones(&[1]);
        boxed.step("p", &mut param, &grad).unwrap();
        assert!(param.as_slice()[0] < 0.0);
    }

    /// Interrupting a run, snapshotting, restoring into a fresh optimizer
    /// and continuing must produce bitwise-identical parameters to the
    /// uninterrupted run — for both optimizers.
    #[test]
    fn state_round_trip_resumes_bitwise() {
        let grad_at = |x: f32| Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();

        // Uninterrupted references.
        let mut adam_ref = Adam::new(0.2);
        let mut sgd_ref = Sgd::new(0.05, 0.9);
        let mut pa_ref = Tensor::zeros(&[1]);
        let mut ps_ref = Tensor::zeros(&[1]);
        for _ in 0..50 {
            let g = grad_at(pa_ref.as_slice()[0]);
            adam_ref.step("x", &mut pa_ref, &g).unwrap();
            let g = grad_at(ps_ref.as_slice()[0]);
            sgd_ref.step("x", &mut ps_ref, &g).unwrap();
        }

        // Interrupted at step 20, resumed from snapshots.
        let mut adam = Adam::new(0.2);
        let mut sgd = Sgd::new(0.05, 0.9);
        let mut pa = Tensor::zeros(&[1]);
        let mut ps = Tensor::zeros(&[1]);
        for _ in 0..20 {
            let g = grad_at(pa.as_slice()[0]);
            adam.step("x", &mut pa, &g).unwrap();
            let g = grad_at(ps.as_slice()[0]);
            sgd.step("x", &mut ps, &g).unwrap();
        }
        let mut adam = Adam::from_state(adam.state()).unwrap();
        let mut sgd = Sgd::from_state(sgd.state()).unwrap();
        for _ in 20..50 {
            let g = grad_at(pa.as_slice()[0]);
            adam.step("x", &mut pa, &g).unwrap();
            let g = grad_at(ps.as_slice()[0]);
            sgd.step("x", &mut ps, &g).unwrap();
        }

        assert_eq!(
            pa.as_slice()[0].to_bits(),
            pa_ref.as_slice()[0].to_bits(),
            "Adam resume diverged"
        );
        assert_eq!(
            ps.as_slice()[0].to_bits(),
            ps_ref.as_slice()[0].to_bits(),
            "SGD resume diverged"
        );
    }

    #[test]
    fn state_kind_mismatch_is_rejected() {
        let adam = Adam::new(0.1);
        let sgd = Sgd::new(0.1, 0.9);
        assert!(Sgd::from_state(adam.state()).is_err());
        assert!(Adam::from_state(sgd.state()).is_err());
    }
}
