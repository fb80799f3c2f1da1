//! The happens-before relation over a trace's events.
//!
//! One engine serves every client that asks "which events are ordered":
//! the race detector ([`HbRaceDetector`](crate::HbRaceDetector)), DPOR's
//! backtrack analysis in `dd-replay`, and the property tests. It keeps a
//! clock per task, the clock of each lock's last release and, per channel,
//! one sender clock per queued message. The rules, applied in trace order:
//!
//! - **Tick.** Every task-attributed event ticks the acting task's own
//!   component, so every event a task performs is strictly after its
//!   previous one. A spawn's acting task is the child; the parent's own
//!   clock does not move.
//! - **Spawn.** The child starts from its parent's clock.
//! - **Join.** The joiner acquires the joined task's clock.
//! - **Lock hand-off.** A release publishes the releaser's clock; the next
//!   acquire of that lock acquires it.
//! - **Channel.** A send queues the sender's clock; the receive that takes
//!   that message acquires it (FIFO, one clock per message).
//! - **Notify.** Every task a notification wakes acquires the notifier's
//!   clock.
//!
//! Acquiring edges join before the acting task ticks; publishing edges
//! publish after it ticks.

use crate::vclock::VectorClock;
use dd_sim::{Event, TaskId};
use std::collections::{HashMap, VecDeque};

/// The clock every task has before its first event.
static ZERO: VectorClock = VectorClock::new();

/// Happens-before bookkeeping over a stream of trace events.
#[derive(Debug, Clone, Default)]
pub struct HappensBefore {
    tasks: HashMap<u32, VectorClock>,
    locks: HashMap<u32, VectorClock>,
    chans: HashMap<u32, VecDeque<VectorClock>>,
}

impl HappensBefore {
    /// An engine that has seen no events.
    pub fn new() -> Self {
        Self::default()
    }

    /// `task`'s clock after the last event applied (the zero clock before
    /// its first).
    pub fn clock(&self, task: TaskId) -> &VectorClock {
        self.tasks.get(&task.0).unwrap_or(&ZERO)
    }

    fn clock_mut(&mut self, task: TaskId) -> &mut VectorClock {
        self.tasks.entry(task.0).or_default()
    }

    /// Applies one event's edges and tick, returning the task whose clock
    /// it advanced — the child for a spawn, [`Event::task`] otherwise —
    /// or `None` for events no task performs (decisions and fault-plane
    /// events), which change no clock.
    pub fn apply(&mut self, event: &Event) -> Option<TaskId> {
        if let Event::TaskSpawn { parent, child, .. } = event {
            if let Some(p) = parent {
                let pvc = self.clock(*p).clone();
                self.clock_mut(*child).join(&pvc);
            }
            self.clock_mut(*child).tick(*child);
            return Some(*child);
        }
        let task = event.task()?;
        // Acquire, before the tick.
        let acquired = match event {
            Event::LockAcquire { lock, .. } => self.locks.get(&lock.0).cloned(),
            Event::Recv { chan, .. } => self.chans.get_mut(&chan.0).and_then(VecDeque::pop_front),
            Event::Joined { target, .. } => Some(self.clock(*target).clone()),
            _ => None,
        };
        let clock = self.tasks.entry(task.0).or_default();
        if let Some(vc) = acquired {
            clock.join(&vc);
        }
        clock.tick(task);
        // Publish, after the tick.
        match event {
            Event::LockRelease { lock, .. } => {
                self.locks.insert(lock.0, clock.clone());
            }
            Event::Send { chan, .. } => {
                let vc = clock.clone();
                self.chans.entry(chan.0).or_default().push_back(vc);
            }
            Event::CondNotify { woken, .. } => {
                let vc = clock.clone();
                for w in woken {
                    self.clock_mut(*w).join(&vc);
                }
            }
            _ => {}
        }
        Some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sim::CondvarId;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn spawn_ticks_the_child_from_the_parents_clock() {
        let mut hb = HappensBefore::new();
        hb.apply(&Event::TaskSpawn {
            parent: None,
            child: t(0),
            name: "a".into(),
            group: "g".into(),
        });
        let acting = hb.apply(&Event::TaskSpawn {
            parent: Some(t(0)),
            child: t(1),
            name: "b".into(),
            group: "g".into(),
        });
        assert_eq!(acting, Some(t(1)));
        assert!(hb.clock(t(0)).leq(hb.clock(t(1))));
        assert_eq!(hb.clock(t(0)).get(t(0)), 1, "the parent does not tick");
    }

    #[test]
    fn notify_orders_every_woken_task_after_the_notifier() {
        let mut hb = HappensBefore::new();
        hb.apply(&Event::CondNotify {
            task: t(0),
            cvar: CondvarId(0),
            all: true,
            woken: vec![t(1), t(2)],
            site: "notify".into(),
        });
        let notifier = hb.clock(t(0));
        assert!(notifier.leq(hb.clock(t(1))) && notifier.leq(hb.clock(t(2))));
        assert!(!notifier.leq(hb.clock(t(3))));
    }

    #[test]
    fn events_without_a_task_change_nothing() {
        let mut hb = HappensBefore::new();
        assert_eq!(
            hb.apply(&Event::GroupKilled {
                group: "g".into(),
                tasks: vec![t(0)],
            }),
            None
        );
        assert_eq!(hb.clock(t(0)), &VectorClock::new());
    }
}
