//! A generic work-stealing slice executor — the scheduling core shared
//! by the server farm ([`crate::farm`]) and the mode search-space sweep
//! ([`crate::sweep`]).
//!
//! The model: `n` tasks, each producing exactly one result, executed
//! over `threads` workers, the calling thread among them. A task runs
//! in *slices* — the step function either yields the task back (to be
//! requeued and resumed, possibly on a different thread) or finishes it
//! with a result for its slot. Every worker owns a deque; it drains its own deque from the
//! front and steals from the back of other workers' deques when it runs
//! dry. Idle workers park on a condvar instead of spinning; a worker
//! panic aborts the whole run (the scope re-throws the panic rather
//! than hanging the siblings).
//!
//! The executor guarantees nothing about *which thread* runs a slice —
//! callers that need determinism must make each task's computation a
//! pure function of the task itself, as both the farm (per-server
//! seeded streams) and the sweep (per-cell fresh processes) do.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

/// What one executed slice did with its task.
pub enum Slice<T, R> {
    /// The task is unfinished: requeue it.
    Yield(T),
    /// The task completed, publishing `R` into result slot `usize`.
    Done(usize, R),
}

/// Shared scheduler state for one run.
struct Scheduler<T, R> {
    /// One deque per worker thread.
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Tasks whose results have not been published yet.
    unfinished: AtomicUsize,
    /// Per-task results, filled in as tasks finish.
    slots: Mutex<Vec<Option<R>>>,
    /// Set when a worker unwinds mid-task: its task will never finish,
    /// so idle siblings must stop waiting for the count to drain and let
    /// the scope re-throw the panic instead of hanging the run.
    aborted: AtomicBool,
    /// Idle workers park here instead of burning CPU; signalled when a
    /// task is requeued and when the run drains or aborts.
    idle_lock: Mutex<()>,
    idle: Condvar,
}

impl<T, R> Scheduler<T, R> {
    fn new(tasks: usize, threads: usize) -> Scheduler<T, R> {
        Scheduler {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            unfinished: AtomicUsize::new(tasks),
            slots: Mutex::new((0..tasks).map(|_| None).collect()),
            aborted: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle: Condvar::new(),
        }
    }
}

/// Pops the next task for worker `me`: own deque first (front — the
/// worker round-robins its tasks), then steal from the back of the
/// other workers' deques.
fn pop_task<T>(me: usize, deques: &[Mutex<VecDeque<T>>]) -> Option<T> {
    if let Some(task) = deques[me].lock().expect("steal deque lock").pop_front() {
        return Some(task);
    }
    let n = deques.len();
    for d in 1..n {
        let victim = (me + d) % n;
        if let Some(task) = deques[victim].lock().expect("steal deque lock").pop_back() {
            return Some(task);
        }
    }
    None
}

/// Flags the scheduler as aborted when dropped armed (i.e. when the
/// owning worker unwinds instead of exiting its loop normally).
struct AbortSentinel<'a, T, R> {
    sched: &'a Scheduler<T, R>,
    armed: bool,
}

impl<T, R> Drop for AbortSentinel<'_, T, R> {
    fn drop(&mut self) {
        if self.armed {
            self.sched.aborted.store(true, Ordering::Release);
            self.sched.idle.notify_all();
        }
    }
}

/// How long an idle worker parks before re-checking for stealable work
/// (bounds the window where a wakeup raced its last pop attempt).
const IDLE_PARK: std::time::Duration = std::time::Duration::from_micros(200);

/// One worker thread's scheduling loop.
fn worker_loop<T, R>(
    me: usize,
    sched: &Scheduler<T, R>,
    step: &(impl Fn(T) -> Slice<T, R> + Sync),
) {
    let mut sentinel = AbortSentinel { sched, armed: true };
    loop {
        if sched.aborted.load(Ordering::Acquire) {
            break;
        }
        let Some(task) = pop_task(me, &sched.deques) else {
            if sched.unfinished.load(Ordering::Acquire) == 0 {
                break;
            }
            // Every remaining task is live on some other worker; park
            // until one yields or finishes rather than spinning.
            let guard = sched.idle_lock.lock().expect("steal idle lock");
            let _ = sched
                .idle
                .wait_timeout(guard, IDLE_PARK)
                .expect("steal idle lock");
            continue;
        };
        match step(task) {
            Slice::Yield(task) => {
                sched.deques[me]
                    .lock()
                    .expect("steal deque lock")
                    .push_back(task);
                sched.idle.notify_one();
            }
            Slice::Done(index, result) => {
                sched.slots.lock().expect("steal result lock")[index] = Some(result);
                if sched.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                    sched.idle.notify_all();
                }
            }
        }
    }
    sentinel.armed = false;
}

/// Runs `tasks` to completion over `threads` workers — the calling
/// thread and `threads - 1` spawned ones — returning the results in
/// slot order. Tasks are seeded round-robin across the worker deques in
/// their given order.
///
/// Each task must finish with a distinct slot index in
/// `0..tasks.len()`; the slot a task publishes to is the caller's
/// contract (both current callers use the task's seeding position).
///
/// # Panics
///
/// Panics when `tasks` is empty, when a worker panics (the panic is
/// propagated once every other worker has stopped), or when a task finishes into a slot some other
/// task already filled (leaving another slot empty).
pub fn run_stealing<T, R, F>(threads: usize, tasks: Vec<T>, step: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Slice<T, R> + Sync,
{
    assert!(
        !tasks.is_empty(),
        "work-stealing run needs at least one task"
    );
    let threads = threads.clamp(1, tasks.len());
    let sched = Scheduler::new(tasks.len(), threads);
    for (i, task) in tasks.into_iter().enumerate() {
        sched.deques[i % threads]
            .lock()
            .expect("steal deque lock")
            .push_back(task);
    }

    // The calling thread is worker 0: a one-thread run spawns nothing.
    thread::scope(|scope| {
        for me in 1..threads {
            let sched = &sched;
            let step = &step;
            scope.spawn(move || worker_loop(me, sched, step));
        }
        worker_loop(0, &sched, &step);
    });

    sched
        .slots
        .into_inner()
        .expect("steal result lock")
        .into_iter()
        .map(|s| s.expect("every task slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slice_tasks_complete_in_slot_order() {
        let tasks: Vec<usize> = (0..32).collect();
        let results = run_stealing(4, tasks, |i| Slice::Done(i, i * 10));
        assert_eq!(results, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn yielding_tasks_resume_until_done() {
        // Each task counts to its own index by yielding once per step.
        struct Count {
            slot: usize,
            left: usize,
            done: usize,
        }
        let tasks: Vec<Count> = (0..16)
            .map(|slot| Count {
                slot,
                left: slot,
                done: 0,
            })
            .collect();
        let results = run_stealing(3, tasks, |mut t: Count| {
            if t.left == 0 {
                return Slice::Done(t.slot, t.done);
            }
            t.left -= 1;
            t.done += 1;
            Slice::Yield(t)
        });
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            run_stealing(threads, (0..40usize).collect(), |i| {
                Slice::Done(i, (i as u64).wrapping_mul(0x9E37_79B9))
            })
        };
        assert_eq!(run(1), run(7));
    }

    #[test]
    fn a_panicking_task_propagates_without_hanging() {
        for threads in [1, 3] {
            let run = std::panic::catch_unwind(|| {
                run_stealing(threads, (0..24usize).collect(), |i| {
                    assert_ne!(i, 13, "task 13 fails");
                    Slice::Done(i, i)
                })
            });
            assert!(run.is_err(), "{threads} threads: the panic propagates");
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_run_is_a_bug() {
        let _ = run_stealing(2, Vec::<usize>::new(), |i| Slice::Done::<usize, ()>(i, ()));
    }
}
