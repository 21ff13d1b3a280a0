//! A backend wrapper that holds one batch in `predict_batch` until the test
//! lets it go.
//!
//! Tests use it to force "requests arrive while a batch executes" without a
//! sleep or a timing race: arm the gate, send one request, wait until its
//! batch is held, send the rest (they queue behind it), then release. The
//! unit tests include this file by path and the integration tests as a
//! module, so both drive the batcher the same way.

use pg_advisor::KernelInstance;
use pg_engine::{EngineError, PredictionContext, RuntimePredictor};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long [`Gate::wait_held`] waits before failing the test instead of
/// hanging it.
const HANG_GUARD: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Calls pass straight through.
    Open,
    /// The next `predict_batch` call holds.
    Armed,
    /// A call is held until [`Gate::release`].
    Held,
}

struct Shared {
    state: Mutex<State>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("gate state poisoned")
    }

    fn set(&self, state: State) {
        *self.lock() = state;
        self.changed.notify_all();
    }
}

/// A [`RuntimePredictor`] that delegates everything to `inner`, except that
/// its first `predict_batch` call after [`Gate::arm`] reports itself held
/// and blocks until [`Gate::release`].
pub struct Gated {
    inner: Box<dyn RuntimePredictor>,
    shared: Arc<Shared>,
}

/// The test's side of a [`Gated`] backend. Dropping it releases a held
/// call, so a failing test cannot leave the batcher blocked.
pub struct Gate {
    shared: Arc<Shared>,
}

/// Wrap `inner` behind an open gate.
pub fn gated(inner: impl RuntimePredictor + 'static) -> (Gated, Gate) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Open),
        changed: Condvar::new(),
    });
    let backend = Gated {
        inner: Box::new(inner),
        shared: Arc::clone(&shared),
    };
    (backend, Gate { shared })
}

impl Gate {
    /// Hold the next `predict_batch` call.
    pub fn arm(&self) {
        self.shared.set(State::Armed);
    }

    /// Block until the armed call is held. Panics after [`HANG_GUARD`].
    pub fn wait_held(&self) {
        let deadline = Instant::now() + HANG_GUARD;
        let mut state = self.shared.lock();
        while *state != State::Held {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no predict_batch call reached the gate");
            state = self
                .shared
                .changed
                .wait_timeout(state, left)
                .expect("gate state poisoned")
                .0;
        }
    }

    /// Let the held call (or, if none has arrived yet, every call) through.
    pub fn release(&self) {
        self.shared.set(State::Open);
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.release();
    }
}

impl RuntimePredictor for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(
        &self,
        ctx: &PredictionContext<'_>,
        instance: &KernelInstance,
    ) -> Result<f64, EngineError> {
        self.inner.predict(ctx, instance)
    }

    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[KernelInstance],
    ) -> Vec<Result<f64, EngineError>> {
        let mut state = self.shared.lock();
        if *state == State::Armed {
            *state = State::Held;
            self.shared.changed.notify_all();
            while *state == State::Held {
                state = self
                    .shared
                    .changed
                    .wait(state)
                    .expect("gate state poisoned");
            }
        }
        drop(state);
        self.inner.predict_batch(ctx, instances)
    }
}
