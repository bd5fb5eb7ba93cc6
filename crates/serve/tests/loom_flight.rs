//! Model-check the single-flight slot and the FIFO admission gate under
//! `--cfg loom`.
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test --release -p
//! bwb-serve --test loom_flight` (the CI `model-check` job does exactly
//! this). The vendored loom stand-in explores bounded interleavings with
//! DPOR, pinning for *every* explored schedule:
//!
//! 1. Coalescing: with one leader and two followers on one key, the work
//!    runs exactly once and both followers receive its payload (no lost
//!    wakeup on the slot), after which the flight is retired.
//! 2. Bounded admission: under one slot and zero queue positions, a
//!    second leader is rejected and its work never runs.
//! 3. FIFO admission: two leaders queued behind a running one are
//!    admitted in arrival order.
//!
//! A leader that must stay running blocks on a mutex the model's main
//! thread holds rather than spinning: the explorer runs yield-spinning
//! threads round-robin by id, so two spinners at once starve a third.
#![cfg(loom)]

use bwb_serve::{CacheKey, FlightOutcome, QueueFull, SingleFlight};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread::{self, JoinHandle};

const KEY: CacheKey = CacheKey(7);

fn spin_until(done: impl Fn() -> bool) {
    while !done() {
        thread::yield_now();
    }
}

/// Submit `key` from a new thread whose work waits for `hold` to be free.
fn held_leader(
    sf: &Arc<SingleFlight>,
    key: CacheKey,
    hold: &Arc<Mutex<()>>,
) -> JoinHandle<FlightOutcome> {
    let (sf, hold) = (sf.clone(), hold.clone());
    thread::spawn(move || {
        sf.run_or_join(key, || {
            drop(hold.lock());
            Ok("held".to_string())
        })
        .unwrap()
    })
}

#[test]
fn one_leader_two_followers_run_once_and_share_the_payload() {
    let stats = loom::model_stats(|| {
        let sf = Arc::new(SingleFlight::new(1, 0));
        let runs = Arc::new(AtomicUsize::new(0));
        let submit = |payload: &'static str| {
            let (sf, runs) = (sf.clone(), runs.clone());
            thread::spawn(move || {
                sf.run_or_join(KEY, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open until both followers joined.
                    spin_until(|| sf.waiters_for(KEY) == Some(2));
                    Ok(payload.to_string())
                })
                .unwrap()
            })
        };
        let leader = submit("payload");
        spin_until(|| sf.waiters_for(KEY).is_some());
        let followers = [submit("duplicate"), submit("duplicate")];

        assert!(!leader.join().unwrap().coalesced);
        for f in followers {
            let out = f.join().unwrap();
            assert!(out.coalesced, "a follower ran as a leader");
            assert_eq!(out.payload.as_deref(), Ok("payload"));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran more than once");
        assert_eq!(sf.waiters_for(KEY), None, "flight not retired");
        assert_eq!(sf.stats().running_now, 0, "admission slot leaked");
    });
    println!("coalescing: {stats:?}");
}

#[test]
fn full_gate_rejects_a_second_leader_without_admitting_it() {
    let stats = loom::model_stats(|| {
        let sf = Arc::new(SingleFlight::new(1, 0));
        let hold = Arc::new(Mutex::new(()));
        let held = hold.lock();
        let holder = held_leader(&sf, CacheKey(1), &hold);
        spin_until(|| sf.stats().running_now == 1);
        let second = {
            let sf = sf.clone();
            thread::spawn(move || sf.run_or_join(CacheKey(2), || Ok("admitted".to_string())))
        };
        let rejected = second.join().unwrap();
        drop(held);
        assert_eq!(holder.join().unwrap().payload.as_deref(), Ok("held"));

        assert_eq!(
            rejected.unwrap_err(),
            QueueFull {
                retry_after_secs: 1
            }
        );
        // Only the holder's work ran: the rejected leader was never admitted.
        let s = sf.stats();
        assert_eq!((s.executed, s.rejected), (1, 1));
        assert_eq!((s.running_now, s.queued_now), (0, 0));
        assert_eq!(sf.waiters_for(CacheKey(2)), None);
    });
    println!("rejection: {stats:?}");
}

#[test]
fn queued_leaders_are_admitted_in_arrival_order() {
    let stats = loom::model_stats(|| {
        let sf = Arc::new(SingleFlight::new(1, 2));
        let hold = Arc::new(Mutex::new(()));
        let held = hold.lock();
        let holder = held_leader(&sf, CacheKey(1), &hold);
        spin_until(|| sf.stats().running_now == 1);
        // Each queued leader's payload is the turn at which it ran. The
        // next leader is spawned only once the previous one holds its
        // ticket, which fixes the arrival order.
        let turn = Arc::new(AtomicUsize::new(0));
        let mut queued = Vec::new();
        for k in [2u64, 3] {
            let (leader_sf, turn) = (sf.clone(), turn.clone());
            queued.push(thread::spawn(move || {
                let out = leader_sf.run_or_join(CacheKey(k), || {
                    Ok(turn.fetch_add(1, Ordering::SeqCst).to_string())
                });
                out.unwrap().payload.unwrap()
            }));
            spin_until(|| sf.stats().queued_now == queued.len());
        }
        drop(held);
        holder.join().unwrap();
        let order: Vec<String> = queued.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(order, ["0", "1"], "queued leaders admitted out of order");
        assert_eq!(sf.stats().running_now, 0);
    });
    println!("fifo: {stats:?}");
}
