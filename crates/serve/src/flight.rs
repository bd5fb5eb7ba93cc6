//! Admission control and single-flight coalescing.
//!
//! Two concerns share this module because they interlock:
//!
//! * **Single-flight**: identical in-flight jobs (same cache key) execute
//!   once. The first submitter becomes the *leader* and runs the work; any
//!   duplicate arriving before completion becomes a *follower* and blocks
//!   on the flight's slot until the leader publishes its payload there.
//!   Followers never consume an admission slot — coalescing happens before
//!   admission, so a burst of identical requests costs one queue position,
//!   not N.
//! * **Admission**: heavy-job concurrency is bounded by a FIFO ticket
//!   gate. Joining, admitting a leader, queueing it behind earlier
//!   arrivals, or rejecting it when the queue is full (HTTP 429 upstream)
//!   is one decision under one lock, so a rejected leader never registers
//!   a flight that duplicates could join.
//!
//! Nothing here is async. The leader runs its work on its own calling
//! thread, and every wait is a condvar park: followers on the key's slot,
//! queued leaders on the gate. A drop guard retires the flight on every
//! exit, so a leader whose work panics still frees its admission slot and
//! wakes its followers with an error.

// Under `--cfg loom` the primitives come from the vendored loom DPOR model
// checker, so the slot and gate protocols are verified across all bounded
// interleavings (see tests/loom_flight.rs).
#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use parking_lot::{Condvar, Mutex};

use crate::key::CacheKey;
use std::collections::HashMap;
use std::sync::Arc;

type Payload = Result<String, String>;

/// Counters for `/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightStats {
    /// Jobs whose work closure actually ran (single-flight leaders).
    pub executed: u64,
    /// Submissions served by joining an in-flight identical job.
    pub coalesced: u64,
    /// Submissions rejected because the admission queue was full.
    pub rejected: u64,
    /// Leaders currently holding an admission slot.
    pub running_now: usize,
    /// Leaders currently waiting for an admission slot.
    pub queued_now: usize,
}

/// Admission rejection: the bounded queue was full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull {
    /// Hint for the client's `Retry-After` header, seconds.
    pub retry_after_secs: u64,
}

/// The result of one submission.
#[derive(Debug)]
pub struct FlightOutcome {
    pub payload: Payload,
    /// True when this submission rode on another's execution.
    pub coalesced: bool,
}

/// One in-flight key: the leader publishes here, followers park on `done`.
#[derive(Default)]
struct Slot {
    payload: Mutex<Option<Payload>>,
    done: Condvar,
}

impl Slot {
    fn publish(&self, payload: Payload) {
        *self.payload.lock() = Some(payload);
        self.done.notify_all();
    }

    fn wait(&self) -> Payload {
        let mut payload = self.payload.lock();
        while payload.is_none() {
            self.done.wait(&mut payload);
        }
        payload.clone().expect("published")
    }
}

/// Everything a submission decides on, under one lock: the in-flight keys,
/// the admission gate, and the counters. Queued leaders hold tickets and
/// are admitted in ticket order, each once a slot is free.
#[derive(Default)]
struct State {
    /// In-flight keys: each flight's slot and its follower count.
    flights: HashMap<u64, (Arc<Slot>, usize)>,
    running: usize,
    queued: usize,
    next_ticket: u64,
    serving: u64,
    executed: u64,
    coalesced: u64,
    rejected: u64,
}

pub struct SingleFlight {
    max_concurrent: usize,
    max_queue: usize,
    state: Mutex<State>,
    /// Signalled when an admission slot frees or a queued leader is served.
    turn: Condvar,
}

/// An admitted leader's hold on its flight. Dropping it — on return or
/// when the work unwinds — frees the admission slot and retires the flight
/// with `payload`, or with an error if the work never produced one.
struct Lead<'a> {
    sf: &'a SingleFlight,
    key: u64,
    payload: Option<Payload>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let flight = {
            let mut st = self.sf.state.lock();
            st.running -= 1;
            st.flights.remove(&self.key)
        };
        self.sf.turn.notify_all();
        if let Some((slot, followers)) = flight {
            if followers > 0 {
                let panicked = || Err("coalesced leader's job panicked".into());
                slot.publish(self.payload.take().unwrap_or_else(panicked));
            }
        }
    }
}

impl SingleFlight {
    /// `max_concurrent` leaders run at once; up to `max_queue` more wait;
    /// beyond that submissions are rejected.
    pub fn new(max_concurrent: usize, max_queue: usize) -> SingleFlight {
        assert!(max_concurrent > 0, "need at least one admission slot");
        SingleFlight {
            max_concurrent,
            max_queue,
            state: Mutex::default(),
            turn: Condvar::default(),
        }
    }

    /// Followers currently joined to `key`'s flight (None = no flight).
    /// Exposed for tests and `/stats`.
    pub fn waiters_for(&self, key: CacheKey) -> Option<usize> {
        let st = self.state.lock();
        st.flights.get(&key.0).map(|&(_, followers)| followers)
    }

    pub fn stats(&self) -> FlightStats {
        let st = self.state.lock();
        FlightStats {
            executed: st.executed,
            coalesced: st.coalesced,
            rejected: st.rejected,
            running_now: st.running,
            queued_now: st.queued,
        }
    }

    /// Submit work under `key`. Exactly one of the concurrent submitters
    /// with the same key runs `work`; the rest receive its payload.
    ///
    /// Blocks while queued for admission or joined to another's flight;
    /// `work` runs on the calling thread once admitted.
    pub fn run_or_join<F>(&self, key: CacheKey, work: F) -> Result<FlightOutcome, QueueFull>
    where
        F: FnOnce() -> Payload,
    {
        let mut st = self.state.lock();
        // Join an existing flight if one is up.
        if let Some((slot, followers)) = st.flights.get_mut(&key.0) {
            *followers += 1;
            let slot = Arc::clone(slot);
            st.coalesced += 1;
            drop(st);
            return Ok(FlightOutcome {
                payload: slot.wait(),
                coalesced: true,
            });
        }

        // Leader path: admit now, queue behind earlier arrivals, or reject.
        let admit_now = st.queued == 0 && st.running < self.max_concurrent;
        if !admit_now && st.queued >= self.max_queue {
            st.rejected += 1;
            return Err(QueueFull {
                retry_after_secs: 1,
            });
        }
        // Registered before queueing, so duplicates coalesce while it waits.
        st.flights.insert(key.0, (Arc::default(), 0));
        if !admit_now {
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queued += 1;
            while st.serving != ticket || st.running >= self.max_concurrent {
                self.turn.wait(&mut st);
            }
            st.serving += 1;
            st.queued -= 1;
            // Several slots may have freed at once: let the next ticket look.
            self.turn.notify_all();
        }
        st.running += 1;
        st.executed += 1;
        drop(st);

        let mut lead = Lead {
            sf: self,
            key: key.0,
            payload: None,
        };
        let payload = work();
        lead.payload = Some(payload.clone());
        Ok(FlightOutcome {
            payload,
            coalesced: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn poll_until(done: impl Fn() -> bool) {
        while !done() {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn identical_concurrent_jobs_execute_once_with_identical_payloads() {
        let sf = SingleFlight::new(2, 4);
        let runs = AtomicUsize::new(0);
        let key = CacheKey(7);

        // The leader's work blocks until the follower has provably joined
        // the flight, so coalescing is deterministic, not timing-dependent.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (a, b) = thread::scope(|s| {
            let (sf, runs) = (&sf, &runs);
            let leader = s.spawn(move || {
                sf.run_or_join(key, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    gate_rx.recv().unwrap();
                    Ok("{\"result\":42}".to_string())
                })
                .unwrap()
            });
            // Wait until the leader's flight is registered, then join it.
            poll_until(|| sf.waiters_for(key).is_some());
            let follower = s.spawn(move || {
                sf.run_or_join(key, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Ok("{\"result\":\"should never run\"}".to_string())
                })
                .unwrap()
            });
            poll_until(|| sf.waiters_for(key) == Some(1));
            gate_tx.send(()).unwrap();
            (leader.join().unwrap(), follower.join().unwrap())
        });

        assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran exactly once");
        assert_eq!(a.payload.as_deref(), b.payload.as_deref());
        assert!(!a.coalesced && b.coalesced);
        let s = sf.stats();
        assert_eq!((s.executed, s.coalesced, s.rejected), (1, 1, 0));
        assert_eq!(sf.waiters_for(key), None, "flight cleaned up");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new(2, 4);
        let runs = AtomicUsize::new(0);
        thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let (sf, runs) = (&sf, &runs);
                    s.spawn(move || {
                        sf.run_or_join(CacheKey(i), move || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(format!("{{\"i\":{i}}}"))
                        })
                        .unwrap()
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let out = h.join().unwrap();
                assert_eq!(out.payload.unwrap(), format!("{{\"i\":{i}}}"));
                assert!(!out.coalesced);
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn full_queue_rejects_new_leaders() {
        // One slot, zero queue: anything beyond the running leader bounces.
        let sf = SingleFlight::new(1, 0);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        thread::scope(|s| {
            let sf = &sf;
            let holder = s.spawn(move || {
                sf.run_or_join(CacheKey(1), move || {
                    gate_rx.recv().unwrap();
                    Ok("held".to_string())
                })
                .unwrap()
            });
            poll_until(|| sf.stats().running_now == 1);
            let rejected = sf.run_or_join(CacheKey(2), || Ok("no".into()));
            assert_eq!(
                rejected.unwrap_err(),
                QueueFull {
                    retry_after_secs: 1
                }
            );
            gate_tx.send(()).unwrap();
            assert_eq!(holder.join().unwrap().payload.unwrap(), "held");
        });
        assert_eq!(sf.stats().rejected, 1);
    }

    #[test]
    fn panicking_leader_releases_its_key_slot_and_followers() {
        let sf = Arc::new(SingleFlight::new(1, 0));
        let key = CacheKey(9);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || {
                sf.run_or_join(key, || -> Payload {
                    gate_rx.recv().unwrap();
                    panic!("job blew up")
                })
            })
        };
        poll_until(|| sf.waiters_for(key).is_some());
        // The follower reports over a channel, so a wedged flight fails
        // the test instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let follower = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || {
                let _ = done_tx.send(sf.run_or_join(key, || Ok("never".into())).unwrap());
            })
        };
        poll_until(|| sf.waiters_for(key) == Some(1));
        gate_tx.send(()).unwrap();
        assert!(leader.join().is_err(), "the leader's panic propagates");
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the follower is woken");
        follower.join().unwrap();

        assert!(outcome.coalesced);
        assert!(outcome.payload.is_err(), "follower sees the failure");
        assert_eq!(sf.waiters_for(key), None, "the key is not wedged");
        assert_eq!(sf.stats().running_now, 0, "the admission slot came back");
        let fresh = sf.run_or_join(key, || Ok("again".into())).unwrap();
        assert_eq!(fresh.payload.as_deref(), Ok("again"));
        assert!(!fresh.coalesced);
    }
}
