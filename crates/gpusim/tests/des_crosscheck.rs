//! Cross-validation of the analytic queue model against a discrete-event
//! replay.
//!
//! [`Engine`] computes completion times in closed form (`start =
//! max(submit, tail)`). This test replays random submission schedules
//! through an explicit discrete-event simulation — commands become events
//! on a local time-ordered heap, the processor picks up the next command
//! when the previous one completes — and checks that both models agree on
//! every completion time. If the analytic shortcut ever diverges from
//! first-principles event processing, this catches it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use doe_simtime::Engine;
use doe_simtime::{SimDuration, SimTime};
use proptest::prelude::*;

/// A command: submitted at `submit`, runs for `duration`.
#[derive(Debug, Clone, Copy)]
struct Command {
    submit: SimTime,
    duration: SimDuration,
}

fn schedule() -> impl Strategy<Value = Vec<Command>> {
    // About half the cases squeeze submits and durations into 32 ps, so
    // every run replays same-instant Submit/Submit and Submit/Complete
    // ties, where FIFO order among equal timestamps decides the answer.
    prop_oneof![
        prop::collection::vec((0u64..1_000_000u64, 0u64..500_000u64), 1..100),
        prop::collection::vec((0u64..32u64, 0u64..32u64), 1..100),
    ]
    .prop_map(|raw| {
        // Submissions must be in non-decreasing order (a single host
        // thread submits); sort to enforce it.
        let mut subs: Vec<u64> = raw.iter().map(|&(s, _)| s).collect();
        subs.sort_unstable();
        subs.iter()
            .zip(raw.iter())
            .map(|(&s, &(_, d))| Command {
                submit: SimTime::from_ps(s),
                duration: SimDuration::from_ps(d),
            })
            .collect()
    })
}

/// The analytic model.
fn run_engine(cmds: &[Command]) -> Vec<SimTime> {
    let mut e = Engine::new();
    cmds.iter()
        .map(|c| e.enqueue(c.submit, c.duration).1)
        .collect()
}

/// First-principles DES: two event kinds drive an explicit processor
/// state machine.
fn run_des(cmds: &[Command]) -> Vec<SimTime> {
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Submit(usize),
        Complete(usize),
    }

    // Min-heap on (time, push sequence): equal timestamps pop FIFO.
    let mut q = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |q: &mut BinaryHeap<_>, at: SimTime, ev: Ev| {
        q.push(Reverse((at, seq, ev)));
        seq += 1;
    };
    for (i, c) in cmds.iter().enumerate() {
        push(&mut q, c.submit, Ev::Submit(i));
    }

    let mut pending: std::collections::VecDeque<usize> = Default::default();
    let mut busy = false;
    let mut completions = vec![SimTime::ZERO; cmds.len()];

    while let Some(Reverse((at, _, ev))) = q.pop() {
        match ev {
            Ev::Submit(i) => {
                pending.push_back(i);
                if !busy {
                    busy = true;
                    let next = pending.pop_front().expect("just pushed");
                    push(&mut q, at + cmds[next].duration, Ev::Complete(next));
                }
            }
            Ev::Complete(i) => {
                completions[i] = at;
                if let Some(next) = pending.pop_front() {
                    push(&mut q, at + cmds[next].duration, Ev::Complete(next));
                } else {
                    busy = false;
                }
            }
        }
    }
    completions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The closed-form engine and the event-driven replay agree exactly.
    #[test]
    fn analytic_engine_matches_discrete_event_replay(cmds in schedule()) {
        let analytic = run_engine(&cmds);
        let des = run_des(&cmds);
        prop_assert_eq!(analytic, des);
    }
}

#[test]
fn worked_example_matches_by_hand() {
    let us = |x: f64| SimTime::ZERO + SimDuration::from_us(x);
    let cmds = vec![
        Command {
            submit: us(0.0),
            duration: SimDuration::from_us(5.0),
        },
        Command {
            submit: us(1.0), // queued behind the first
            duration: SimDuration::from_us(2.0),
        },
        Command {
            submit: us(20.0), // idle gap before this one
            duration: SimDuration::from_us(1.0),
        },
    ];
    let want = vec![us(5.0), us(7.0), us(21.0)];
    assert_eq!(run_engine(&cmds), want);
    assert_eq!(run_des(&cmds), want);
}
