//! The mutual-exclusion manager's queue (§5.1).
//!
//! One queue per requirement, kept at its manager: central control's
//! manager engine or distributed control's manager agent. A step holds the
//! resource from its grant until its release; later requests wait in FIFO
//! order. Waiters are `(instance, step, reply)`, where `reply` is whatever
//! the manager needs to deliver the grant (`()` when it routes by instance).

use crew_model::{InstanceId, StepId};
use std::collections::VecDeque;

/// One request: the step, plus where its grant goes.
pub type Waiter<R> = (InstanceId, StepId, R);

/// What an acquire did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The resource was free; the requester holds it now.
    Granted,
    /// The requester already holds it (a re-acquire, e.g. after a
    /// rollback invalidated its grant).
    AlreadyHolder,
    /// Someone else holds it; the requester waits (once) in the queue.
    Queued,
}

/// Holder and FIFO waiters of one mutual-exclusion requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutexQueue<R = ()> {
    holder: Option<Waiter<R>>,
    queue: VecDeque<Waiter<R>>,
}

impl<R> Default for MutexQueue<R> {
    fn default() -> Self {
        MutexQueue {
            holder: None,
            queue: VecDeque::new(),
        }
    }
}

impl<R: Copy + PartialEq> MutexQueue<R> {
    /// Request the resource for `step` of `instance`.
    pub fn acquire(&mut self, instance: InstanceId, step: StepId, reply: R) -> Acquire {
        let waiter = (instance, step, reply);
        match self.holder {
            None => {
                self.holder = Some(waiter);
                Acquire::Granted
            }
            Some(h) if h == waiter => Acquire::AlreadyHolder,
            Some(_) => {
                if !self.queue.contains(&waiter) {
                    self.queue.push_back(waiter);
                }
                Acquire::Queued
            }
        }
    }

    /// `step` of `instance` hands the resource back (or gives up waiting:
    /// an aborted instance must never be granted later). Returns the next
    /// holder when the releaser held the resource.
    pub fn release(&mut self, instance: InstanceId, step: StepId) -> Option<Waiter<R>> {
        let releaser = |w: &Waiter<R>| w.0 == instance && w.1 == step;
        self.queue.retain(|w| !releaser(w));
        if self.holder.as_ref().is_some_and(releaser) {
            self.holder = self.queue.pop_front();
            self.holder
        } else {
            None
        }
    }

    /// The current holder.
    pub fn holder(&self) -> Option<Waiter<R>> {
        self.holder
    }

    /// Waiters in grant order.
    pub fn waiting(&self) -> &VecDeque<Waiter<R>> {
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    fn inst(n: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), n)
    }

    #[test]
    fn grants_in_fifo_order() {
        let mut q = MutexQueue::<()>::default();
        let s = StepId(2);
        assert_eq!(q.acquire(inst(1), s, ()), Acquire::Granted);
        assert_eq!(q.acquire(inst(1), s, ()), Acquire::AlreadyHolder);
        assert_eq!(q.acquire(inst(2), s, ()), Acquire::Queued);
        assert_eq!(q.acquire(inst(3), s, ()), Acquire::Queued);
        assert_eq!(q.acquire(inst(2), s, ()), Acquire::Queued);
        assert_eq!(q.waiting().len(), 2, "a waiter queues once");
        assert_eq!(q.release(inst(1), s), Some((inst(2), s, ())));
        assert_eq!(q.release(inst(2), s), Some((inst(3), s, ())));
        assert_eq!(q.release(inst(3), s), None);
        assert_eq!(q.holder(), None);
    }

    #[test]
    fn release_by_a_waiter_only_dequeues_it() {
        let mut q = MutexQueue::<u32>::default();
        let s = StepId(1);
        q.acquire(inst(1), s, 10);
        q.acquire(inst(2), s, 20);
        q.acquire(inst(3), s, 30);
        assert_eq!(q.release(inst(2), s), None);
        assert_eq!(q.holder(), Some((inst(1), s, 10)));
        assert_eq!(q.release(inst(1), s), Some((inst(3), s, 30)));
    }

    #[test]
    fn the_reply_is_part_of_a_waiters_identity() {
        let mut q = MutexQueue::<u32>::default();
        let s = StepId(1);
        q.acquire(inst(1), s, 10);
        assert_eq!(q.acquire(inst(1), s, 11), Acquire::Queued);
        // Release matches by step alone and drops every entry of it.
        assert_eq!(q.release(inst(1), s), None);
        assert_eq!(q.holder(), None);
        assert!(q.waiting().is_empty());
    }
}
