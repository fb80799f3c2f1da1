//! Incrementally maintained machine-state digests.
//!
//! Replay localises the first diverging decision by comparing a digest of
//! the machine state taken before every recorded decision (see
//! [`RunConfig::hash_decisions`](crate::config::RunConfig)). Re-hashing the
//! whole world at every decision would cost O(world) per decision, so the
//! digest is maintained incrementally instead:
//!
//! - **Per-object hashes.** Every task, variable, lock, condition variable,
//!   channel and port, plus each environment slot ([`Env`]: timers, pending
//!   inputs, the fault plane, counters), has a cached hash. Mutation sites
//!   mark the object dirty ([`WorldState::task_mut`] and friends); the next
//!   digest re-hashes only the dirty objects.
//! - **Queues.** A queued [`Value`] is hashed once, when it is enqueued.
//!   A [`QueueDigest`] keeps each element's hash and an order-sensitive
//!   polynomial over them that is updated in O(1) per push and pop, so a
//!   queue's hash never re-walks its payload bytes.
//! - **Combining.** Object hashes are combined commutatively, as a wrapping
//!   sum of [`term`]s keyed by object kind and index, and the sum is folded
//!   with the scalar clocks, object counts, history lengths and RNG words
//!   through an order-sensitive word hasher with a strong finaliser.
//!
//! The per-object function [`WorldState::object_hash`] is the single
//! definition of what each object contributes. Building a cache from
//! scratch runs it over every object — that is both the from-scratch digest
//! ([`WorldState::full_digest`]) and the rebuild after a snapshot decode —
//! while the incremental path runs it over dirty objects only. Debug
//! builds cross-check every incremental digest against the from-scratch
//! one.
//!
//! Hashing works on little-endian 64-bit words, never on a platform's
//! native layout, so digests are reproducible across Rust versions and
//! hosts: committed trace fixtures pin these values.
//!
//! Instrumentation cost (`wall_extra`) is excluded: attached observers
//! differ between a recording and its replay, and recording overhead must
//! not perturb the digest.

use crate::conflict::OpDesc;
use crate::kernel::{BlockOn, CvStage, Op, PendingInput, Phase, TaskRec, WorldState};
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

// ---- word hashing --------------------------------------------------------

/// Odd multiplier of the word hasher.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The murmur3 64-bit finaliser: a bijection with full avalanche.
const fn fmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Order-sensitive hasher over 64-bit words. Each step
/// `h ← (rotl(h, 5) ^ w) · K` is a bijection of `h` for a fixed word, so two
/// equal-length word sequences that differ in a single word always hash
/// differently.
struct Words(u64);

impl Words {
    fn new() -> Self {
        Words(0x243f_6a88_85a3_08d3)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }

    /// Length, then the bytes as zero-padded little-endian words.
    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.word(0),
            Value::Bool(b) => {
                self.word(1);
                self.word(*b as u64);
            }
            Value::Int(i) => {
                self.word(2);
                self.word(*i as u64);
            }
            Value::Str(s) => {
                self.word(3);
                self.bytes(s.as_bytes());
            }
            Value::Bytes(b) => {
                self.word(4);
                self.bytes(b);
            }
            Value::List(vs) => {
                self.word(5);
                self.word(vs.len() as u64);
                for v in vs {
                    self.value(v);
                }
            }
        }
    }

    fn op_desc(&mut self, d: &OpDesc) {
        match d {
            OpDesc::Var { var, write } => {
                self.word(0);
                self.word(var.index() as u64);
                self.word(*write as u64);
            }
            OpDesc::Lock { lock } => {
                self.word(1);
                self.word(lock.index() as u64);
            }
            OpDesc::CvWait { cvar, lock } => {
                self.word(2);
                self.word(cvar.index() as u64);
                self.word(lock.index() as u64);
            }
            OpDesc::CvNotify { cvar } => {
                self.word(3);
                self.word(cvar.index() as u64);
            }
            OpDesc::Chan { chan } => {
                self.word(4);
                self.word(chan.index() as u64);
            }
            OpDesc::PortIn { port } => {
                self.word(5);
                self.word(port.index() as u64);
            }
            OpDesc::PortOut { port } => {
                self.word(6);
                self.word(port.index() as u64);
            }
            OpDesc::Rng => self.word(7),
            OpDesc::Local => self.word(8),
            OpDesc::Global => self.word(9),
        }
    }

    fn phase(&mut self, p: &Phase) {
        match *p {
            Phase::Ready => self.word(0),
            Phase::Granted => self.word(1),
            Phase::Running => self.word(2),
            Phase::Exited { ok } => {
                self.word(3);
                self.word(ok as u64);
            }
            Phase::Blocked(BlockOn::Lock(l)) => {
                self.word(4);
                self.word(l.index() as u64);
            }
            Phase::Blocked(BlockOn::Chan { chan, deadline }) => {
                self.word(5);
                self.word(chan.index() as u64);
                self.opt(deadline);
            }
            Phase::Blocked(BlockOn::Cvar(c)) => {
                self.word(6);
                self.word(c.index() as u64);
            }
            Phase::Blocked(BlockOn::Port(p)) => {
                self.word(7);
                self.word(p.index() as u64);
            }
            Phase::Blocked(BlockOn::Join(t)) => {
                self.word(8);
                self.word(t.index() as u64);
            }
            Phase::Blocked(BlockOn::Timer { until }) => {
                self.word(9);
                self.word(until);
            }
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.word(0),
            Some(x) => {
                self.word(1);
                self.word(x);
            }
        }
    }

    fn timed(&mut self, list: &VecDeque<(u64, String)>) {
        self.word(list.len() as u64);
        for (time, group) in list {
            self.word(*time);
            self.bytes(group.as_bytes());
        }
    }

    fn timed_pairs(&mut self, list: &VecDeque<(u64, String, String)>) {
        self.word(list.len() as u64);
        for (time, a, b) in list {
            self.word(*time);
            self.bytes(a.as_bytes());
            self.bytes(b.as_bytes());
        }
    }

    fn counts(&mut self, counts: &BTreeMap<String, u64>) {
        self.word(counts.len() as u64);
        for (group, n) in counts {
            self.bytes(group.as_bytes());
            self.word(*n);
        }
    }

    fn finish(self) -> u64 {
        fmix(self.0)
    }
}

/// The hash of one value: what a queue stores per element and what a
/// variable's cached hash is.
fn value_hash(v: &Value) -> u64 {
    let mut h = Words::new();
    h.value(v);
    h.finish()
}

fn input_hash(p: &PendingInput) -> u64 {
    let mut h = Words::new();
    h.word(p.time);
    h.word(p.port.index() as u64);
    h.value(&p.value);
    h.finish()
}

fn timer_term(when: u64, task: u32) -> u64 {
    fmix(fmix(when) ^ task as u64)
}

/// An object's contribution to the world digest. A bijection of `h` for a
/// fixed `(kind, index)`, so a changed object hash always changes the sum.
fn term(kind: Kind, index: usize, h: u64) -> u64 {
    fmix(h ^ fmix(((kind as u64) << 32 | index as u64).wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

// ---- queues ---------------------------------------------------------------

/// Base of the queue polynomial (odd, hence invertible modulo 2⁶⁴).
const B: u64 = 0x9e37_79b9_7f4a_7c15;

/// `B⁻¹ mod 2⁶⁴`, by Newton iteration (each step doubles the correct low
/// bits; an odd `B` is its own inverse modulo 8).
const B_INV: u64 = {
    let mut x = B;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(B.wrapping_mul(x)));
        i += 1;
    }
    x
};
const _: () = assert!(B.wrapping_mul(B_INV) == 1);

/// Order-sensitive digest of a FIFO: each element's hash, taken once at
/// enqueue, and the polynomial `Σ hᵢ·Bⁱ` over positions counted from the
/// front. A push adds one term; a pop subtracts the front hash and divides
/// by `B`, so no element is re-hashed and no position renumbered.
#[derive(Debug, Clone)]
struct QueueDigest {
    hashes: VecDeque<u64>,
    poly: u64,
    /// `B^len`.
    pow: u64,
}

impl Default for QueueDigest {
    fn default() -> Self {
        QueueDigest {
            hashes: VecDeque::new(),
            poly: 0,
            pow: 1,
        }
    }
}

impl QueueDigest {
    fn of(hashes: impl Iterator<Item = u64>) -> Self {
        let mut q = QueueDigest::default();
        for h in hashes {
            q.push(h);
        }
        q
    }

    fn push(&mut self, h: u64) {
        self.poly = self.poly.wrapping_add(h.wrapping_mul(self.pow));
        self.pow = self.pow.wrapping_mul(B);
        self.hashes.push_back(h);
    }

    fn pop(&mut self) {
        let h = self
            .hashes
            .pop_front()
            .expect("queue digest tracks its queue");
        self.poly = self.poly.wrapping_sub(h).wrapping_mul(B_INV);
        self.pow = self.pow.wrapping_mul(B_INV);
    }
}

fn queue_at(queues: &mut Vec<QueueDigest>, i: usize) -> &mut QueueDigest {
    if i >= queues.len() {
        queues.resize_with(i + 1, QueueDigest::default);
    }
    &mut queues[i]
}

// ---- the cache ------------------------------------------------------------

/// Kinds of digest-covered objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Task,
    Var,
    Lock,
    Cvar,
    Chan,
    Port,
    Env,
}

const KINDS: usize = 7;

/// The environment slots: world state that is not an indexed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Env {
    Timers,
    PendingInputs,
    PendingCrashes,
    PendingPartitions,
    PendingHeals,
    ActivePartitions,
    PendingRestarts,
    RestartsDue,
    RestartsFired,
    CrashCounts,
    RestartCounts,
    Counters,
}

const ENV_SLOTS: usize = 12;

impl Env {
    const ALL: [Env; ENV_SLOTS] = [
        Env::Timers,
        Env::PendingInputs,
        Env::PendingCrashes,
        Env::PendingPartitions,
        Env::PendingHeals,
        Env::ActivePartitions,
        Env::PendingRestarts,
        Env::RestartsDue,
        Env::RestartsFired,
        Env::CrashCounts,
        Env::RestartCounts,
        Env::Counters,
    ];
}

/// The cached per-object hashes of one world (see the [module docs](self)).
/// Plain data: snapshots clone it with the world. Only valid while the
/// world's `hash_decisions` is set; turning hashing on rebuilds it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DigestCache {
    /// Per kind, each object's current [`term`] (`0` until first hashed).
    terms: [Vec<u64>; KINDS],
    /// Per kind, whether the object is already listed in `dirty`.
    queued: [Vec<bool>; KINDS],
    /// Objects changed since the last digest.
    dirty: Vec<(Kind, u32)>,
    /// Wrapping sum of every term.
    sum: u64,
    chans: Vec<QueueDigest>,
    ports: Vec<QueueDigest>,
    inputs: QueueDigest,
    /// Wrapping sum of [`timer_term`] over the timer heap (a multiset).
    timers: u64,
}

impl DigestCache {
    #[inline]
    fn mark(&mut self, kind: Kind, i: usize) {
        let queued = &mut self.queued[kind as usize];
        if i >= queued.len() {
            queued.resize(i + 1, false);
        }
        if !queued[i] {
            queued[i] = true;
            self.dirty.push((kind, i as u32));
        }
    }

    fn set(&mut self, kind: Kind, i: usize, h: u64) {
        let terms = &mut self.terms[kind as usize];
        if i >= terms.len() {
            terms.resize(i + 1, 0);
        }
        let new = term(kind, i, h);
        self.sum = self.sum.wrapping_sub(terms[i]).wrapping_add(new);
        terms[i] = new;
    }
}

impl WorldState {
    fn count(&self, kind: Kind) -> usize {
        match kind {
            Kind::Task => self.tasks.len(),
            Kind::Var => self.vars.len(),
            Kind::Lock => self.locks.len(),
            Kind::Cvar => self.cvars.len(),
            Kind::Chan => self.chans.len(),
            Kind::Port => self.ports.len(),
            Kind::Env => ENV_SLOTS,
        }
    }

    /// The hash of one object — the single definition both the
    /// from-scratch and the incremental digest use.
    fn object_hash(&self, c: &DigestCache, kind: Kind, i: usize) -> u64 {
        let mut h = Words::new();
        match kind {
            Kind::Task => task_words(&mut h, &self.tasks[i]),
            Kind::Var => return value_hash(&self.vars[i].value),
            Kind::Lock => h.word(self.locks[i].holder.map_or(0, |t| t.index() as u64 + 1)),
            Kind::Cvar => {
                let waiters = &self.cvars[i].waiters;
                h.word(waiters.len() as u64);
                for w in waiters {
                    h.word(w.index() as u64);
                }
            }
            Kind::Chan => {
                let ch = &self.chans[i];
                h.word(ch.closed as u64);
                h.word(ch.queue.len() as u64);
                h.word(c.chans.get(i).map_or(0, |q| q.poly));
            }
            Kind::Port => {
                let p = &self.ports[i];
                h.word(p.remaining_inputs as u64);
                h.word(p.queue.len() as u64);
                h.word(c.ports.get(i).map_or(0, |q| q.poly));
            }
            Kind::Env => self.env_words(&mut h, c, i),
        }
        h.finish()
    }

    fn env_words(&self, h: &mut Words, c: &DigestCache, slot: usize) {
        match Env::ALL[slot] {
            Env::Timers => {
                h.word(self.timers.len() as u64);
                h.word(c.timers);
            }
            Env::PendingInputs => {
                h.word(self.pending_inputs.len() as u64);
                h.word(c.inputs.poly);
            }
            Env::PendingCrashes => h.timed(&self.pending_crashes),
            Env::PendingPartitions => h.timed_pairs(&self.pending_partitions),
            Env::PendingHeals => h.timed_pairs(&self.pending_heals),
            Env::ActivePartitions => {
                h.word(self.active_partitions.len() as u64);
                for (a, b) in &self.active_partitions {
                    h.bytes(a.as_bytes());
                    h.bytes(b.as_bytes());
                }
            }
            Env::PendingRestarts => h.timed(&self.pending_restarts),
            Env::RestartsDue => {
                h.word(self.restarts_due.len() as u64);
                for group in &self.restarts_due {
                    h.bytes(group.as_bytes());
                }
            }
            Env::RestartsFired => {
                h.word(self.restarts_fired.len() as u64);
                for (group, base) in &self.restarts_fired {
                    h.bytes(group.as_bytes());
                    h.word(*base as u64);
                }
            }
            Env::CrashCounts => h.counts(&self.crash_counts),
            Env::RestartCounts => h.counts(&self.restart_counts),
            Env::Counters => {
                h.word(self.counters.len() as u64);
                for (name, total) in &self.counters {
                    h.bytes(name.as_bytes());
                    h.word(*total as u64);
                }
            }
        }
    }

    /// Folds the object-hash sum with the scalar state.
    fn combine(&self, sum: u64) -> u64 {
        let mut h = Words::new();
        for w in [
            self.time,
            self.steps,
            self.events,
            self.decision_seq,
            self.net_sends,
            self.cancelling as u64,
            self.outputs.len() as u64,
            self.inputs_seen.len() as u64,
            self.crashes.len() as u64,
        ] {
            h.word(w);
        }
        for kind in [
            Kind::Task,
            Kind::Var,
            Kind::Lock,
            Kind::Cvar,
            Kind::Chan,
            Kind::Port,
        ] {
            h.word(self.count(kind) as u64);
        }
        for w in self.rng.digest_words() {
            h.word(w);
        }
        h.word(sum);
        h.finish()
    }

    /// The digest of the live machine state, recomputed from scratch
    /// without touching the cache. Covers the clocks, step, event and
    /// decision counts, network sends, the RNG, every task, variable, lock,
    /// condition variable, channel and port, timers, pending environment
    /// events, the fault plane, counters and the history *lengths* (any
    /// divergence in history content necessarily flows through the live
    /// state that produced it). Excludes `wall_extra`.
    pub(crate) fn full_digest(&self) -> u64 {
        self.combine(self.fresh_cache().sum)
    }

    /// The digest of the live machine state from the cache: re-hashes only
    /// the objects changed since the last digest. Requires
    /// `hash_decisions` (the cache is only maintained while it is set).
    /// Debug builds cross-check it against [`full_digest`](Self::full_digest).
    pub(crate) fn digest(&mut self) -> u64 {
        debug_assert!(self.hash_decisions, "digest cache is off");
        let mut dirty = std::mem::take(&mut self.digest_cache.dirty);
        for &(kind, i) in &dirty {
            let i = i as usize;
            let h = self.object_hash(&self.digest_cache, kind, i);
            self.digest_cache.set(kind, i, h);
            self.digest_cache.queued[kind as usize][i] = false;
        }
        dirty.clear();
        self.digest_cache.dirty = dirty;
        let d = self.combine(self.digest_cache.sum);
        debug_assert_eq!(
            d,
            self.full_digest(),
            "incremental digest differs from the from-scratch digest"
        );
        d
    }

    /// Rebuilds the digest cache from scratch and returns the digest.
    pub(crate) fn rebuild_digest(&mut self) -> u64 {
        self.digest_cache = self.fresh_cache();
        self.combine(self.digest_cache.sum)
    }

    /// A cache built from the values alone: every queued element and
    /// pending input hashed, every object hashed through
    /// [`object_hash`](Self::object_hash).
    fn fresh_cache(&self) -> DigestCache {
        let mut c = DigestCache {
            chans: self
                .chans
                .iter()
                .map(|ch| QueueDigest::of(ch.queue.iter().map(value_hash)))
                .collect(),
            ports: self
                .ports
                .iter()
                .map(|p| QueueDigest::of(p.queue.iter().map(value_hash)))
                .collect(),
            inputs: QueueDigest::of(self.pending_inputs.iter().map(input_hash)),
            ..DigestCache::default()
        };
        c.timers = self.timers.iter().fold(0, |s, Reverse((when, t))| {
            s.wrapping_add(timer_term(*when, *t))
        });
        for kind in ALL_KINDS {
            for i in 0..self.count(kind) {
                let h = self.object_hash(&c, kind, i);
                c.set(kind, i, h);
            }
        }
        c
    }

    /// Turns per-decision digests on or off. Turning them on rebuilds the
    /// cache, since mutations made while they were off were not tracked.
    pub(crate) fn set_hashing(&mut self, on: bool) {
        if on && !self.hash_decisions {
            self.rebuild_digest();
        }
        self.hash_decisions = on;
    }

    // ---- mutation sites ---------------------------------------------------
    //
    // Every change to a digest-covered object goes through one of these,
    // which marks the object dirty while hashing is on (a single branch
    // when it is off).

    #[inline]
    pub(crate) fn mark(&mut self, kind: Kind, i: usize) {
        if self.hash_decisions {
            self.digest_cache.mark(kind, i);
        }
    }

    #[inline]
    pub(crate) fn mark_env(&mut self, slot: Env) {
        self.mark(Kind::Env, slot as usize);
    }

    pub(crate) fn task_mut(&mut self, i: usize) -> &mut TaskRec {
        self.mark(Kind::Task, i);
        &mut self.tasks[i]
    }

    pub(crate) fn set_var(&mut self, i: usize, value: Value) {
        self.mark(Kind::Var, i);
        self.vars[i].value = value;
    }

    pub(crate) fn lock_holder_mut(&mut self, i: usize) -> &mut Option<crate::ids::TaskId> {
        self.mark(Kind::Lock, i);
        &mut self.locks[i].holder
    }

    pub(crate) fn cvar_waiters_mut(&mut self, i: usize) -> &mut Vec<crate::ids::TaskId> {
        self.mark(Kind::Cvar, i);
        &mut self.cvars[i].waiters
    }

    pub(crate) fn close_chan(&mut self, i: usize) {
        self.mark(Kind::Chan, i);
        self.chans[i].closed = true;
    }

    pub(crate) fn chan_push(&mut self, i: usize, v: Value) {
        if self.hash_decisions {
            queue_at(&mut self.digest_cache.chans, i).push(value_hash(&v));
            self.digest_cache.mark(Kind::Chan, i);
        }
        self.chans[i].queue.push_back(v);
    }

    pub(crate) fn chan_pop(&mut self, i: usize) -> Option<Value> {
        let v = self.chans[i].queue.pop_front()?;
        if self.hash_decisions {
            self.digest_cache.chans[i].pop();
            self.digest_cache.mark(Kind::Chan, i);
        }
        Some(v)
    }

    pub(crate) fn port_push(&mut self, i: usize, v: Value) {
        if self.hash_decisions {
            queue_at(&mut self.digest_cache.ports, i).push(value_hash(&v));
            self.digest_cache.mark(Kind::Port, i);
        }
        self.ports[i].queue.push_back(v);
    }

    pub(crate) fn port_pop(&mut self, i: usize) -> Option<Value> {
        let v = self.ports[i].queue.pop_front()?;
        if self.hash_decisions {
            self.digest_cache.ports[i].pop();
            self.digest_cache.mark(Kind::Port, i);
        }
        Some(v)
    }

    pub(crate) fn remaining_inputs_mut(&mut self, i: usize) -> &mut usize {
        self.mark(Kind::Port, i);
        &mut self.ports[i].remaining_inputs
    }

    pub(crate) fn set_pending_inputs(&mut self, inputs: VecDeque<PendingInput>) {
        if self.hash_decisions {
            self.digest_cache.inputs = QueueDigest::of(inputs.iter().map(input_hash));
            self.digest_cache
                .mark(Kind::Env, Env::PendingInputs as usize);
        }
        self.pending_inputs = inputs;
    }

    pub(crate) fn pop_input(&mut self) -> Option<PendingInput> {
        let p = self.pending_inputs.pop_front()?;
        if self.hash_decisions {
            self.digest_cache.inputs.pop();
            self.digest_cache
                .mark(Kind::Env, Env::PendingInputs as usize);
        }
        Some(p)
    }

    pub(crate) fn push_timer(&mut self, when: u64, task: u32) {
        if self.hash_decisions {
            let c = &mut self.digest_cache;
            c.timers = c.timers.wrapping_add(timer_term(when, task));
            c.mark(Kind::Env, Env::Timers as usize);
        }
        self.timers.push(Reverse((when, task)));
    }

    pub(crate) fn pop_timer(&mut self) -> Option<(u64, u32)> {
        let Reverse((when, task)) = self.timers.pop()?;
        if self.hash_decisions {
            let c = &mut self.digest_cache;
            c.timers = c.timers.wrapping_sub(timer_term(when, task));
            c.mark(Kind::Env, Env::Timers as usize);
        }
        Some((when, task))
    }
}

const ALL_KINDS: [Kind; KINDS] = [
    Kind::Task,
    Kind::Var,
    Kind::Lock,
    Kind::Cvar,
    Kind::Chan,
    Kind::Port,
    Kind::Env,
];

fn task_words(h: &mut Words, t: &TaskRec) {
    h.phase(&t.phase);
    h.word(t.killed as u64);
    h.word(t.mem_used);
    h.word(t.joiners.len() as u64);
    for j in &t.joiners {
        h.word(j.index() as u64);
    }
    match &t.pending {
        None => h.word(0),
        Some(d) => {
            h.word(1);
            h.op_desc(d);
        }
    }
    // The progress a parked operation accumulated across blocked attempts.
    let (tag, at) = match &t.pending_op {
        Some(Op::CvWait {
            stage: CvStage::Relock,
            ..
        }) => (1, 0),
        Some(Op::Recv {
            deadline: Some(d), ..
        }) => (2, *d),
        Some(Op::Sleep { until: Some(u), .. }) => (3, *u),
        _ => (0, 0),
    };
    h.word(tag);
    h.word(at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ChanClass, CrashEvent, EnvConfig, OpCosts, PartitionEvent, RestartEvent, TimedInput,
    };
    use crate::conflict::OpDesc;
    use crate::ids::TaskId;
    use crate::kernel::{CrashRecord, Kernel, OutputRecord, PortDir};
    use crate::policy::RandomPolicy;

    /// A world holding at least one of everything the digest covers.
    fn populated() -> WorldState {
        let env = EnvConfig {
            crashes: vec![CrashEvent {
                time: 50,
                group: "g1".into(),
            }],
            partitions: vec![PartitionEvent {
                start: 60,
                heal: 70,
                a: "g0".into(),
                b: "g1".into(),
            }],
            restarts: vec![RestartEvent {
                time: 80,
                group: "g1".into(),
            }],
            ..EnvConfig::clean()
        };
        let mut k = Kernel::new(
            3,
            OpCosts::default(),
            env,
            Box::new(RandomPolicy::new(1)),
            Vec::new(),
            None,
            false,
        );
        let t0 = k.add_task("a", "g0", None);
        let t1 = k.add_task("b", "g1", None);
        k.add_var("x", Value::Int(1));
        k.add_lock("m");
        let cv = k.add_cvar("cv");
        let c = k.add_chan("g1.data", ChanClass::Network);
        let p = k.add_port("in", PortDir::In);
        k.load_inputs(
            vec![(
                "in".to_owned(),
                vec![TimedInput {
                    time: 90,
                    value: Value::Int(7),
                }],
            )]
            .into_iter(),
        )
        .unwrap();
        let w = &mut k.world;
        w.cvars[cv.index()].waiters.push(t1);
        w.chans[c.index()]
            .queue
            .extend([Value::Int(1), Value::Str("two".into())]);
        w.ports[p.index()]
            .queue
            .push_back(Value::Bytes(vec![1, 2, 3]));
        w.timers.push(Reverse((40, t0.0)));
        w.active_partitions.insert(("g0".into(), "g2".into()));
        w.restarts_due.push("g2".into());
        w.restarts_fired.push(("g2".into(), 0));
        w.crash_counts.insert("g2".into(), 1);
        w.restart_counts.insert("g2".into(), 1);
        w.counters.insert("drops".into(), 2);
        k.world
    }

    type Mutation = (&'static str, fn(&mut WorldState));

    const MUTATIONS: &[Mutation] = &[
        ("task phase", |w| {
            w.tasks[0].phase = Phase::Blocked(BlockOn::Timer { until: 9 })
        }),
        ("task killed", |w| w.tasks[0].killed = true),
        ("task memory", |w| w.tasks[0].mem_used = 64),
        ("task joiners", |w| w.tasks[0].joiners.push(TaskId(1))),
        ("task pending footprint", |w| {
            w.tasks[0].pending = Some(OpDesc::Rng)
        }),
        ("task op progress", |w| {
            w.tasks[0].pending_op = Some(Op::Sleep {
                until: Some(9),
                ticks: 1,
                site: "s",
            })
        }),
        ("var value", |w| w.vars[0].value = Value::Int(2)),
        ("lock holder", |w| w.locks[0].holder = Some(TaskId(0))),
        ("cvar waiters", |w| w.cvars[0].waiters.push(TaskId(0))),
        ("chan closed", |w| w.chans[0].closed = true),
        ("chan element", |w| w.chans[0].queue[0] = Value::Int(3)),
        ("chan order", |w| w.chans[0].queue.swap(0, 1)),
        ("chan length", |w| w.chans[0].queue.push_back(Value::Unit)),
        ("port element", |w| {
            w.ports[0].queue[0] = Value::Bytes(vec![1, 2, 4])
        }),
        ("port remaining", |w| w.ports[0].remaining_inputs = 0),
        ("new task", |w| {
            let t = w.tasks[0].clone();
            w.tasks.push(t)
        }),
        ("time", |w| w.time += 1),
        ("steps", |w| w.steps += 1),
        ("events", |w| w.events += 1),
        ("decision seq", |w| w.decision_seq += 1),
        ("net sends", |w| w.net_sends += 1),
        ("cancelling", |w| w.cancelling = true),
        ("rng", |w| {
            w.rng.next_u64();
        }),
        ("timer time", |w| w.timers = [Reverse((41, 0))].into()),
        ("timer added", |w| w.timers.push(Reverse((40, 1)))),
        ("pending input", |w| {
            w.pending_inputs[0].value = Value::Int(8)
        }),
        ("pending input consumed", |w| {
            w.pending_inputs.pop_front();
        }),
        ("pending crash", |w| w.pending_crashes[0].0 = 51),
        ("pending partition", |w| {
            w.pending_partitions[0].1 = "g3".into()
        }),
        ("pending heal", |w| {
            w.pending_heals.pop_front();
        }),
        ("pending restart", |w| w.pending_restarts[0].1 = "g3".into()),
        ("active partition", |w| {
            w.active_partitions.insert(("g1".into(), "g2".into()));
        }),
        ("restart due", |w| w.restarts_due.clear()),
        ("restart fired", |w| w.restarts_fired[0].1 = 1),
        ("crash count", |w| {
            *w.crash_counts.get_mut("g2").unwrap() += 1
        }),
        ("restart count", |w| {
            *w.restart_counts.get_mut("g2").unwrap() += 1
        }),
        ("counter", |w| *w.counters.get_mut("drops").unwrap() += 1),
        ("outputs", |w| {
            w.outputs.push(OutputRecord {
                time: 0,
                task: TaskId(0),
                port: crate::ids::PortId(0),
                port_name: "out".into(),
                value: Value::Unit,
            })
        }),
        ("inputs seen", |w| {
            w.inputs_seen.push(("in".into(), Value::Unit))
        }),
        ("crashes", |w| {
            w.crashes.push(CrashRecord {
                time: 0,
                task: TaskId(0),
                reason: "r".into(),
                site: "s".into(),
            })
        }),
    ];

    #[test]
    fn every_covered_component_changes_the_digest() {
        let base = populated();
        let before = base.full_digest();
        for (what, mutate) in MUTATIONS {
            let mut w = base.clone();
            mutate(&mut w);
            assert_ne!(
                w.full_digest(),
                before,
                "changing the {what} kept the digest"
            );
        }
    }

    #[test]
    fn instrumentation_cost_does_not_change_the_digest() {
        let mut w = populated();
        let before = w.full_digest();
        w.wall_extra += 1000;
        assert_eq!(w.full_digest(), before);
    }

    #[test]
    fn queue_digest_pops_and_pushes_match_a_fresh_fold() {
        let mut q = QueueDigest::default();
        let mut live = VecDeque::new();
        for h in 1..=40u64 {
            q.push(h * 0x1234_5678_9abc);
            live.push_back(h * 0x1234_5678_9abc);
            if h % 3 == 0 {
                q.pop();
                live.pop_front();
            }
            let fresh = QueueDigest::of(live.iter().copied());
            assert_eq!((q.poly, q.pow), (fresh.poly, fresh.pow));
        }
    }
}
