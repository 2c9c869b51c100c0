//! Deterministic fault injection for the contained fork-join helpers.
//!
//! Production builds never install a plan, so [`fault_point`] is a single
//! relaxed atomic load on the hot path. Tests and benches install a
//! [`FaultPlan`] via [`install`] to make the *n*th task panic (one-shot:
//! each kill target fires at most once, so a retry of the same task
//! succeeds deterministically) or to inject seeded, bounded delays that
//! shuffle scheduling without changing any result.
//!
//! Installation is guarded by a process-wide scope lock: two tests that
//! both install plans serialise instead of observing each other's faults.
//! Dropping the returned [`FaultScope`] clears the plan.
//!
//! The plan is process-wide on purpose: it must reach tasks that run on
//! threads the installer never sees, such as a daemon's workers. The
//! price is that a caller running contained tasks *without* a scope can
//! fire or consume another test's kill. So every test that runs tasks
//! holds a scope, installing an empty plan for its clean runs.
//!
//! ```
//! use ghd_par::fault::{self, FaultPlan};
//!
//! let _scope = fault::install(FaultPlan::new().kill_task(3));
//! let out = ghd_par::parallel_map_contained(&[0u32, 1, 2, 3, 4], 2, |&x| x);
//! assert_eq!(out.faults.len(), 1);
//! assert_eq!(out.faults[0].task, 3);
//! assert!(out.results[3].is_none());
//! ```

use ghd_prng::{Rng, SplitMix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A declarative fault schedule: which task indices to kill (one-shot) and
/// an optional seeded delay jitter applied to every task.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    kills: Vec<usize>,
    delay: Option<(u64, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until configured).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Kill (panic) the task with input index `task`. One-shot: the target
    /// is consumed when it fires, so retrying the same task index succeeds.
    #[must_use]
    pub fn kill_task(mut self, task: usize) -> Self {
        self.kills.push(task);
        self
    }

    /// Sleep a deterministic, seeded duration in `0..max_micros` µs before
    /// each task, perturbing the schedule without changing results.
    #[must_use]
    pub fn delay(mut self, seed: u64, max_micros: u64) -> Self {
        self.delay = Some((seed, max_micros));
        self
    }
}

/// What [`fault_point`] decided to do for one task.
enum Action {
    Nothing,
    Sleep(Duration),
    Kill,
}

struct ActivePlan {
    kills: Vec<usize>,
    delay: Option<(u64, u64)>,
    fired: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<ActivePlan>> = Mutex::new(None);
static SCOPE: Mutex<()> = Mutex::new(());

/// Locks a mutex, shrugging off poison: the fault module must keep working
/// after a worker it killed unwound past one of these guards.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII guard returned by [`install`]; the plan stays active until this is
/// dropped. Holding it also holds the process-wide scope lock, serialising
/// concurrent installers across tests.
pub struct FaultScope {
    _scope: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// How many faults (kills) the installed plan has fired so far.
    pub fn fired(&self) -> u64 {
        lock_unpoisoned(&ACTIVE).as_ref().map_or(0, |p| p.fired)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *lock_unpoisoned(&ACTIVE) = None;
        ARMED.store(false, Ordering::Release);
    }
}

/// Installs `plan` process-wide and returns the guard keeping it active.
/// Blocks until any previously installed plan is dropped.
pub fn install(plan: FaultPlan) -> FaultScope {
    let scope = lock_unpoisoned(&SCOPE);
    *lock_unpoisoned(&ACTIVE) = Some(ActivePlan {
        kills: plan.kills,
        delay: plan.delay,
        fired: 0,
    });
    ARMED.store(true, Ordering::Release);
    FaultScope { _scope: scope }
}

/// The hook the contained helpers call before running each task. With no
/// plan installed this is one relaxed atomic load. With a plan: decides
/// under the lock, **drops the lock**, then sleeps or panics — so the
/// unwinding never poisons the plan state.
pub(crate) fn fault_point(worker: usize, task: usize) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let action = {
        let mut guard = lock_unpoisoned(&ACTIVE);
        match guard.as_mut() {
            None => Action::Nothing,
            Some(plan) => {
                if let Some(pos) = plan.kills.iter().position(|&k| k == task) {
                    plan.kills.swap_remove(pos);
                    plan.fired += 1;
                    Action::Kill
                } else if let Some((seed, max_micros)) = plan.delay {
                    if max_micros == 0 {
                        Action::Nothing
                    } else {
                        // Per-task stream: same (seed, task) → same delay,
                        // independent of scheduling.
                        let mut rng = SplitMix64::new(
                            seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        Action::Sleep(Duration::from_micros(rng.next_u64() % max_micros))
                    }
                } else {
                    Action::Nothing
                }
            }
        }
        // guard dropped here, before any panic/sleep
    };
    match action {
        Action::Nothing => {}
        Action::Sleep(d) => std::thread::sleep(d),
        Action::Kill => panic!("injected fault: worker {worker} task {task}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_fault_point_is_a_noop() {
        // No plan installed (and the scope lock ensures no concurrent test
        // installed one for us to trip over).
        let _scope = lock_unpoisoned(&SCOPE);
        ARMED.store(false, Ordering::Release);
        fault_point(0, 0);
        fault_point(7, 123);
    }

    #[test]
    fn kill_targets_are_one_shot() {
        let scope = install(FaultPlan::new().kill_task(2));
        let first = std::panic::catch_unwind(|| fault_point(0, 2));
        assert!(first.is_err(), "first visit to task 2 must panic");
        assert_eq!(scope.fired(), 1);
        // Second visit (the retry) passes clean.
        fault_point(0, 2);
        assert_eq!(scope.fired(), 1);
    }

    #[test]
    fn delays_are_deterministic_per_task() {
        let mut a = SplitMix64::new(9 ^ 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut b = SplitMix64::new(9 ^ 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(a.next_u64(), b.next_u64());
        // And the hook itself survives a delay plan without panicking.
        let _scope = install(FaultPlan::new().delay(9, 50));
        fault_point(1, 5);
    }
}
