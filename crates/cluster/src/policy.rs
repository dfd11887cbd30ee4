//! Pluggable scheduling, keepalive and load-balancing policies.
//!
//! The paper's at-scale evaluation fixes one policy point: FCFS scheduling,
//! a 10-minute fixed keepalive, one rack. Serverless-platform studies (e.g.
//! *Serverless in the Wild*'s hybrid-histogram keepalive) show the policy
//! choice dominates cold-start behaviour and therefore tail latency, so the
//! cluster simulation threads three policy axes through every run:
//!
//! * [`SchedulerPolicy`] — which queued request starts next when an instance
//!   frees up (FCFS, shortest-job-first by model cost, per-benchmark fair).
//! * [`KeepalivePolicy`] — how long an idle function's container stays warm
//!   (none, fixed window, hybrid histogram learned from idle times), including
//!   the histogram's *prewarm window*: the head percentile of observed idle
//!   gaps, below which the container is released and proactively re-warmed in
//!   anticipation of the predicted next invocation.
//! * [`ScalingPolicy`] — how a rack's instance pool grows and shrinks (fixed
//!   cap, reactive queue-depth scaling, predictive scaling from the keepalive
//!   histograms' arrival-rate estimates).
//! * [`LoadBalancer`] — how a multi-rack front end shards arriving requests
//!   (round-robin, least-loaded, data-locality-aware with a spill
//!   threshold).

use std::collections::VecDeque;

use dscs_core::benchmarks::Benchmark;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::sim::BENCHMARKS;

/// Which queued request is started next when capacity frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// First-come-first-served (the paper's policy).
    Fcfs,
    /// Shortest job first, by the platform's modelled service time for the
    /// request's benchmark. Starves heavy benchmarks under overload but
    /// minimises mean latency.
    ShortestJobFirst,
    /// Round-robin over per-benchmark FIFO queues, so one hot application
    /// cannot starve the others.
    FairPerBenchmark,
}

impl SchedulerPolicy {
    /// Every scheduler policy.
    pub const ALL: [SchedulerPolicy; 3] = [
        SchedulerPolicy::Fcfs,
        SchedulerPolicy::ShortestJobFirst,
        SchedulerPolicy::FairPerBenchmark,
    ];

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fcfs => "fcfs",
            SchedulerPolicy::ShortestJobFirst => "sjf",
            SchedulerPolicy::FairPerBenchmark => "fair",
        }
    }
}

/// How long an idle function's container stays warm before eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeepalivePolicy {
    /// Evict immediately: every non-concurrent invocation is a cold start.
    NoKeepalive,
    /// Keep every container warm for 10 minutes after its last use
    /// (OpenWhisk-style; the paper's policy).
    FixedWindow,
    /// Hybrid histogram (after *Serverless in the Wild*): learn each
    /// function's idle-time distribution in a per-function histogram of
    /// 10-second bins over 10 minutes — scaled-down analogues of the
    /// 4-hour/1-minute Azure study — and keep the container warm to the
    /// tail percentile of observed idle times, falling back to the whole
    /// 10 minutes while the pattern is uncertain.
    HybridHistogram,
    /// The hybrid histogram with its prewarm window: once a function's
    /// pattern is learned, its container is released at finish (freeing its
    /// memory) and proactively re-warmed at the 5th percentile of the
    /// observed idle gaps, so the predicted next invocation still finds a
    /// warm instance — the study's head/tail window pair.
    HybridPrewarm,
}

impl KeepalivePolicy {
    /// Every keepalive policy.
    pub const ALL: [KeepalivePolicy; 4] = [
        KeepalivePolicy::NoKeepalive,
        KeepalivePolicy::FixedWindow,
        KeepalivePolicy::HybridHistogram,
        KeepalivePolicy::HybridPrewarm,
    ];

    /// The hybrid histogram without prewarming. Kept for `benchmark/sweep.rs`,
    /// which calls it; other code names the variant.
    pub fn hybrid_default() -> Self {
        KeepalivePolicy::HybridHistogram
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KeepalivePolicy::NoKeepalive => "no-keepalive",
            KeepalivePolicy::FixedWindow => "fixed-window",
            KeepalivePolicy::HybridHistogram => "hybrid-histogram",
            KeepalivePolicy::HybridPrewarm => "hybrid-prewarm",
        }
    }

    /// Whether the policy learns idle gaps in a histogram.
    fn learns(self) -> bool {
        matches!(
            self,
            KeepalivePolicy::HybridHistogram | KeepalivePolicy::HybridPrewarm
        )
    }
}

/// How a multi-rack front end shards arriving requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadBalancer {
    /// Rotate through racks in arrival order.
    RoundRobin,
    /// Send each request to the rack with the fewest in-flight plus queued
    /// requests (ties broken by lowest rack index, for determinism).
    LeastLoaded,
    /// Data-locality-aware: prefer the least-loaded rack holding a replica of
    /// the request's object (no cross-rack fetch), but spill to the globally
    /// least-loaded rack — paying the fetch — once the best replica rack has
    /// more than 64 requests queued. This is the locality-vs-load tension
    /// the in-storage execution model lives on: data does not move, so either
    /// the request goes to the data or the bytes cross the fabric.
    LocalityAware,
}

impl LoadBalancer {
    /// Every balancer.
    pub const ALL: [LoadBalancer; 3] = [
        LoadBalancer::RoundRobin,
        LoadBalancer::LeastLoaded,
        LoadBalancer::LocalityAware,
    ];

    /// The locality-aware balancer. Kept for `benchmark/sweep.rs`, which
    /// calls it; other code names the variant.
    pub fn locality_default() -> Self {
        LoadBalancer::LocalityAware
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancer::RoundRobin => "round-robin",
            LoadBalancer::LeastLoaded => "least-loaded",
            LoadBalancer::LocalityAware => "locality",
        }
    }
}

/// How a rack's function-instance pool grows and shrinks.
///
/// The paper pins each rack at a fixed 200-instance cap. Production
/// serverless platforms instead scale the pool elastically: reactively on
/// observed queue pressure, or predictively from learned arrival rates. Both
/// elastic policies decide every 5 seconds, respect the rack's
/// `[min_instances, max_instances]` bounds and pay a modelled provisioning
/// delay on every scale-up, so the simulation exposes the scaling-lag vs.
/// cold-start tradeoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingPolicy {
    /// The paper's policy: the rack always runs `max_instances`.
    Fixed,
    /// Queue-depth reactive scaling: grow by 32 instances while 32 or more
    /// requests queue, shrink by 32 while 2 or fewer do.
    Reactive,
    /// Predictive scaling: size the pool to the keepalive histograms'
    /// aggregate arrival-rate estimate times the mean modelled service time,
    /// with 25% headroom over the predicted demand.
    Predictive,
}

impl ScalingPolicy {
    /// Every scaling policy.
    pub const ALL: [ScalingPolicy; 3] = [
        ScalingPolicy::Fixed,
        ScalingPolicy::Reactive,
        ScalingPolicy::Predictive,
    ];

    /// Reactive queue-depth scaling. Kept for `benchmark/sweep.rs`, which
    /// calls it; other code names the variant.
    pub fn reactive_default() -> Self {
        ScalingPolicy::Reactive
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicy::Fixed => "fixed",
            ScalingPolicy::Reactive => "reactive",
            ScalingPolicy::Predictive => "predictive",
        }
    }
}

/// A policy-driven scheduler queue over request indices into a trace.
///
/// Every discipline is a set of FIFO queues, one per request *class*, plus a
/// rule for which class pops next. A request's class comes from its
/// benchmark, through a table built once per rack from the run's
/// per-benchmark service times:
///
/// * FCFS puts every benchmark in class 0.
/// * Shortest-job-first ranks each benchmark's service time among the
///   run's distinct service times. Benchmarks with equal service times
///   share a class, so ties pop in submission order.
/// * Fair gives each benchmark its own class.
///
/// FCFS and shortest-job-first pop from the lowest occupied class. Fair
/// pops from the first occupied class at or after its cursor, wrapping
/// around, and moves the cursor past that class, so one hot benchmark
/// cannot starve the others. A bitmask of occupied classes finds either
/// class in O(1), and the length is a counter. Every discipline is
/// deterministic.
#[derive(Debug)]
pub(crate) struct SchedQueue {
    /// Each benchmark's class, indexed by `Benchmark as usize`.
    class_of: [u8; BENCHMARKS],
    /// One FIFO of trace indices per class.
    classes: [VecDeque<usize>; BENCHMARKS],
    /// Bit `c` is set while class `c` holds a request.
    occupied: u32,
    /// Whether pops round-robin over the classes (fair) rather than take
    /// the lowest occupied one.
    round_robin: bool,
    /// The class the next pop searches from; stays 0 unless `round_robin`.
    cursor: u32,
    len: usize,
}

// The occupancy mask holds one bit per class, and the fair cursor may sit
// one past the last class.
const _: () = assert!(BENCHMARKS < u32::BITS as usize);

impl SchedQueue {
    /// An empty queue under `policy`, classing requests by
    /// `service_times` (the run's per-benchmark service times, indexed by
    /// `Benchmark as usize`).
    pub(crate) fn new(policy: SchedulerPolicy, service_times: &[SimDuration; BENCHMARKS]) -> Self {
        let class_of = match policy {
            SchedulerPolicy::Fcfs => [0; BENCHMARKS],
            SchedulerPolicy::ShortestJobFirst => {
                let mut distinct = service_times.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                service_times.map(|t| distinct.partition_point(|&d| d < t) as u8)
            }
            SchedulerPolicy::FairPerBenchmark => std::array::from_fn(|b| b as u8),
        };
        SchedQueue {
            class_of,
            classes: std::array::from_fn(|_| VecDeque::new()),
            occupied: 0,
            round_robin: policy == SchedulerPolicy::FairPerBenchmark,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of queued requests.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues trace index `idx`, a request for `benchmark`.
    pub(crate) fn push(&mut self, idx: usize, benchmark: Benchmark) {
        let class = self.class_of[benchmark as usize];
        self.classes[usize::from(class)].push_back(idx);
        self.occupied |= 1 << class;
        self.len += 1;
    }

    /// Removes and returns the next request to start, per the policy.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        if self.occupied == 0 {
            return None;
        }
        let from_cursor = self.occupied & (u32::MAX << self.cursor);
        let class = if from_cursor != 0 {
            from_cursor
        } else {
            self.occupied
        }
        .trailing_zeros();
        let queue = &mut self.classes[class as usize];
        let idx = queue
            .pop_front()
            .expect("an occupied class holds a request");
        if queue.is_empty() {
            self.occupied &= !(1 << class);
        }
        if self.round_robin {
            self.cursor = class + 1;
        }
        self.len -= 1;
        Some(idx)
    }
}

/// Runtime warm/cold bookkeeping for one rack under a [`KeepalivePolicy`].
///
/// Tracks, per function, when its most recent invocation finishes and (for
/// the hybrid policies) a histogram of observed idle gaps. Functions are
/// identified by *slots* ([`crate::trace::TraceRequest::function`]: any
/// index below the trace's request count, gaps allowed), and the state is
/// indexed by slot: the slot table grows to the highest slot seen, and slots
/// that never ran add nothing. Per-function sums run in slot order, so they
/// are deterministic.
///
/// Memory follows what each function has observed. A slot costs 16 bytes:
/// the function's last finish and the index of its gap record. The record
/// is created at the function's first idle gap and keeps the gap counts and
/// the bin indices of its first in-bounds gaps; the tenth in-bounds gap —
/// the first observation at which the pattern can be learned — allocates
/// the dense bins. Before that the bins could not change any decision (the
/// conservative full-range window applies), so a function pays for dense
/// bins only once it is learnable. A dense record also caches its learned
/// eviction and prewarm windows, and two cursors find the bins behind them:
/// each new gap moves a cursor by as many bins as its answer moved, so
/// neither warm/cold decisions nor new gaps rescan the bins.
///
/// The decision rule is conservative in the *Serverless in the Wild* sense:
/// a container is never evicted before the policy's current window for its
/// function has elapsed. Under [`KeepalivePolicy::HybridPrewarm`], the
/// container is instead *released* at finish and proactively re-warmed at
/// the head percentile of the learned idle gaps — trading a sliver of
/// cold-start risk for the memory the container would have held during the
/// gap the pattern says never sees an arrival.
///
/// The state also keeps the warm-memory ledger the Figure-17-style comparison
/// needs: warm-seconds held per function pool and the share of them wasted
/// (held to eviction without a reuse), plus prewarm hits (invocations that
/// found a proactively warmed instance).
#[derive(Debug)]
pub struct KeepaliveState {
    policy: KeepalivePolicy,
    /// By slot: each function's last finish and gap record.
    slots: Vec<Slot>,
    /// Gap records, in the order functions first observed an idle gap (only
    /// the hybrid policies observe gaps).
    gaps: Vec<GapRecord>,
    /// By slot: arrival statistics backing the learned arrival-rate
    /// estimate the predictive autoscaler consumes (fed by
    /// [`KeepaliveState::note_arrival`]). A function that never arrived has
    /// a track with a zero count.
    arrivals: Vec<ArrivalTrack>,
    stats: KeepaliveStats,
}

/// One function's entry in the slot table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The latest finish of the function's invocations, or [`NEVER_RAN`].
    last_finish: SimTime,
    /// Index into [`KeepaliveState::gaps`], or [`NO_GAPS`].
    gaps: u32,
}

/// [`Slot::last_finish`] of a function that never ran.
const NEVER_RAN: SimTime = SimTime::from_nanos(u64::MAX);
/// [`Slot::gaps`] of a function that observed no idle gap.
const NO_GAPS: u32 = u32::MAX;

impl Default for Slot {
    fn default() -> Self {
        Slot {
            last_finish: NEVER_RAN,
            gaps: NO_GAPS,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// The idle gaps one function observed under a hybrid policy.
#[derive(Debug)]
struct GapRecord {
    /// In-bounds gaps (shorter than the histogram range).
    total: u64,
    /// Gaps beyond the histogram range.
    out_of_bounds: u64,
    bins: GapBins,
}

// The gap-record table is the keepalive state's bulk: the cursors that keep
// a dense record's windows current ride in its bins allocation instead.
const _: () = assert!(std::mem::size_of::<GapRecord>() == 56);

/// In-bounds gaps a [`GapRecord`] keeps as bin indices before it allocates
/// dense bins: one short of [`HYBRID_MIN_SAMPLES`], so the bins appear with
/// the first observation at which the pattern can be learned.
const SPARSE_GAPS: usize = 9;
const _: () = assert!(SPARSE_GAPS as u64 + 1 == HYBRID_MIN_SAMPLES);

#[derive(Debug)]
enum GapBins {
    /// The bin index of each in-bounds gap so far (the first `total`).
    Sparse([u32; SPARSE_GAPS]),
    /// Per-bin counts, the cursors over them and the learned windows they
    /// imply.
    Dense {
        /// [`CURSOR_WORDS`] words of [`Cursors`], then one count per bin:
        /// a dense record is one heap allocation. No count exceeds the
        /// record's `total`, which [`GapRecord::observe`] keeps within a
        /// `u32`, and bin indices fit one too.
        words: Box<[u32]>,
        /// The right edge of the bin covering [`HYBRID_TAIL`] of the gaps,
        /// with the safety margin, capped at the range.
        window: SimDuration,
        /// The left edge of the bin covering the prewarm head percentile,
        /// capped at `window` (zero without prewarming).
        prewarm: SimDuration,
    },
}

/// Words ahead of the bin counts in a dense record's allocation: the tail
/// cursor's bin and cumulative count, then the head cursor's.
const CURSOR_WORDS: usize = 4;

impl GapRecord {
    fn new() -> Self {
        GapRecord {
            total: 0,
            out_of_bounds: 0,
            bins: GapBins::Sparse([0; SPARSE_GAPS]),
        }
    }

    /// Observes one idle gap and, once dense, keeps the learned windows
    /// current (the prewarm window only if `prewarm`): the cursors step to
    /// their new bins, and the windows are recomputed only when a cursor's
    /// bin changes.
    ///
    /// # Panics
    /// Panics past `u32::MAX` in-bounds gaps, a trace of over four billion
    /// invocations of one function on one rack.
    fn observe(&mut self, idle: SimDuration, prewarm: bool) {
        let idx = (idle.as_nanos() / HYBRID_BIN.as_nanos()) as usize;
        if idx >= HYBRID_BINS {
            self.out_of_bounds += 1;
            return;
        }
        let index = u32::try_from(idx).expect("histogram bin indices fit in a u32");
        let at = self.total as usize;
        self.total += 1;
        let total = u32::try_from(self.total).expect("in-bounds gap counts fit in a u32");
        match &mut self.bins {
            GapBins::Sparse(early) if at < SPARSE_GAPS => early[at] = index,
            GapBins::Sparse(early) => {
                let mut words = vec![0; CURSOR_WORDS + HYBRID_BINS].into_boxed_slice();
                let (header, bins) = words.split_at_mut(CURSOR_WORDS);
                for &early_idx in early.iter() {
                    bins[early_idx as usize] += 1;
                }
                bins[idx] += 1;
                let mut cursors = Cursors::at_start(bins);
                cursors.seek(bins, total, prewarm);
                cursors.store(header);
                let (window, prewarm_window) = cursors.windows(prewarm);
                self.bins = GapBins::Dense {
                    words,
                    window,
                    prewarm: prewarm_window,
                };
            }
            GapBins::Dense {
                words,
                window,
                prewarm: prewarm_window,
            } => {
                let (header, bins) = words.split_at_mut(CURSOR_WORDS);
                bins[idx] += 1;
                let before = Cursors::load(header);
                let mut cursors = before;
                cursors.count(index, prewarm);
                cursors.seek(bins, total, prewarm);
                if cursors.bins() != before.bins() {
                    (*window, *prewarm_window) = cursors.windows(prewarm);
                }
                cursors.store(header);
                #[cfg(test)]
                tests::note_cursor_moves(before, cursors);
            }
        }
    }

    /// The cached `(window, prewarm)` pair once the pattern is learned:
    /// enough in-bounds gaps (the record is dense) and few out-of-range
    /// ones.
    fn learned(&self) -> Option<(SimDuration, SimDuration)> {
        match self.bins {
            GapBins::Dense {
                window, prewarm, ..
            } if self.oob_rate() <= HYBRID_OOB_LIMIT => Some((window, prewarm)),
            _ => None,
        }
    }

    fn oob_rate(&self) -> f64 {
        let all = self.total + self.out_of_bounds;
        if all == 0 {
            0.0
        } else {
            self.out_of_bounds as f64 / all as f64
        }
    }
}

/// A position in dense bins: the first bin whose cumulative count reaches
/// some share of the in-bounds gaps, and the cumulative count through it.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    bin: u32,
    seen: u32,
}

impl Cursor {
    /// Moves to the first bin whose cumulative count reaches `mass`, or to
    /// the last bin if none does. The cursor steps right while it is short
    /// of the mass and left while the previous bin already reaches it; both
    /// test a full scan's own predicate (`seen as f64 >= mass`), so the bin
    /// is the one a rescan from bin 0 would pick.
    fn seek(&mut self, bins: &[u32], mass: f64) {
        while f64::from(self.seen) < mass && self.bin as usize + 1 < bins.len() {
            self.bin += 1;
            self.seen += bins[self.bin as usize];
        }
        while self.bin > 0 && f64::from(self.seen - bins[self.bin as usize]) >= mass {
            self.seen -= bins[self.bin as usize];
            self.bin -= 1;
        }
    }
}

/// A dense record's two cursors: the tail cursor at [`HYBRID_TAIL`] of the
/// mass (the eviction window) and the head cursor at [`PREWARM_HEAD`],
/// unused without prewarming.
#[derive(Debug, Clone, Copy)]
struct Cursors {
    tail: Cursor,
    head: Cursor,
}

impl Cursors {
    /// Both cursors at bin 0 of `bins`.
    fn at_start(bins: &[u32]) -> Self {
        let start = Cursor {
            bin: 0,
            seen: bins[0],
        };
        Cursors {
            tail: start,
            head: start,
        }
    }

    fn load(header: &[u32]) -> Self {
        let cursor = |at: usize| Cursor {
            bin: header[at],
            seen: header[at + 1],
        };
        Cursors {
            tail: cursor(0),
            head: cursor(2),
        }
    }

    fn store(self, header: &mut [u32]) {
        header.copy_from_slice(&[self.tail.bin, self.tail.seen, self.head.bin, self.head.seen]);
    }

    /// The `(tail, head)` bins.
    fn bins(self) -> (u32, u32) {
        (self.tail.bin, self.head.bin)
    }

    /// Counts one more gap in bin `idx` into every cumulative count it
    /// falls under (the head cursor's only if `prewarm`).
    fn count(&mut self, idx: u32, prewarm: bool) {
        self.tail.seen += u32::from(idx <= self.tail.bin);
        if prewarm {
            self.head.seen += u32::from(idx <= self.head.bin);
        }
    }

    /// Moves each cursor to its bin for `total` in-bounds gaps (the head
    /// cursor only if `prewarm`).
    fn seek(&mut self, bins: &[u32], total: u32, prewarm: bool) {
        self.tail.seek(bins, HYBRID_TAIL * f64::from(total));
        if prewarm {
            self.head.seek(bins, PREWARM_HEAD * f64::from(total));
        }
    }

    /// The learned eviction and prewarm windows at the cursors' bins; the
    /// prewarm window is zero unless `prewarm`.
    fn windows(self, prewarm: bool) -> (SimDuration, SimDuration) {
        let learned = HYBRID_BIN * (u64::from(self.tail.bin) + 1);
        let window = (learned * HYBRID_MARGIN).min(HYBRID_RANGE);
        let prewarm = if prewarm {
            (HYBRID_BIN * u64::from(self.head.bin)).min(window)
        } else {
            SimDuration::ZERO
        };
        (window, prewarm)
    }
}

/// Per-function arrival statistics behind the exponentially-decayed rate
/// estimate: an event counter whose mass decays with time constant
/// [`ARRIVAL_RATE_TAU_S`], so recent arrivals dominate and a diurnal rate
/// shift is tracked within a few time constants instead of being averaged
/// against the whole observed history. (A binned idle-gap mean cannot
/// resolve sub-bin inter-arrivals, which is exactly where demand is highest —
/// the decayed counter resolves them exactly.)
#[derive(Debug, Clone, Copy, Default)]
struct ArrivalTrack {
    /// Arrivals seen; 0 for a function that never arrived, whose other
    /// fields mean nothing.
    count: u64,
    first: SimTime,
    last: SimTime,
    /// Exponentially-decayed arrival mass as of `last`.
    decayed: f64,
}

const _: () = assert!(std::mem::size_of::<ArrivalTrack>() == 32);

/// Warm-memory and prewarming counters accumulated by a [`KeepaliveState`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeepaliveStats {
    /// Warm starts the prewarm policy *predicted*: invocations of a
    /// learned-pattern function (under [`KeepalivePolicy::HybridPrewarm`])
    /// whose idle gap landed inside the prewarm-to-eviction band. When the
    /// function's prewarm window is non-zero the instance had actually been
    /// released and proactively re-warmed; with a zero window (all gaps
    /// inside the first bin) the prediction is degenerate — the container
    /// was simply kept warm — but the arrival still counts as anticipated.
    pub prewarm_hits: u64,
    /// Total container-idle seconds the policy held memory warm.
    pub warm_seconds: f64,
    /// The subset of [`KeepaliveStats::warm_seconds`] that never led to a
    /// warm start: windows held to eviction (or to the end of the run)
    /// without a reuse.
    pub wasted_warm_seconds: f64,
}

impl KeepaliveStats {
    /// Checks the warm-memory ledger [`KeepaliveState::finish_accounting`]
    /// closed: both sums are finite and `0 <= wasted_warm_seconds <=
    /// warm_seconds`. The inequality holds exactly, not just to rounding:
    /// both sums add the same held terms in the same order, `warm_seconds`
    /// adds only further non-negative terms, and rounding is monotone.
    ///
    /// # Panics
    /// Panics, naming the broken invariant, if the ledger breaks it.
    pub(crate) fn assert_closed(&self) {
        let (warm, wasted) = (self.warm_seconds, self.wasted_warm_seconds);
        assert!(
            warm.is_finite() && wasted.is_finite(),
            "finite warm seconds at drain invariant broken: warm {warm} s, wasted {wasted} s"
        );
        assert!(
            0.0 <= wasted && wasted <= warm,
            "0 <= wasted <= warm seconds at drain invariant broken: \
             warm {warm} s, wasted {wasted} s"
        );
    }
}

/// The fixed-window keepalive's window.
const FIXED_WINDOW: SimDuration = SimDuration::from_secs(600);
/// The hybrid histogram's span: the longest learned window, and the window
/// while a function's pattern is unknown.
const HYBRID_RANGE: SimDuration = SimDuration::from_secs(600);
/// The hybrid histogram's bin width.
const HYBRID_BIN: SimDuration = SimDuration::from_secs(10);
/// Bins in a dense gap record.
const HYBRID_BINS: usize = HYBRID_RANGE.as_nanos().div_ceil(HYBRID_BIN.as_nanos()) as usize;
/// The prewarm head percentile: the share of observed idle gaps shorter
/// than the prewarm window (the study's 5th percentile).
const PREWARM_HEAD: f64 = 0.05;
/// Minimum idle-gap observations before the hybrid histogram trusts its
/// learned tail over the conservative full range.
const HYBRID_MIN_SAMPLES: u64 = 10;
/// Fraction of observations the learned window must cover (the study's 99th
/// percentile).
const HYBRID_TAIL: f64 = 0.99;
// A prewarm point at or past the tail would land at or after the
// container's own eviction, so the prewarm could never land.
const _: () = assert!(PREWARM_HEAD < HYBRID_TAIL);
/// Safety margin multiplier on the learned tail window.
const HYBRID_MARGIN: f64 = 1.10;
/// Out-of-bounds rate above which the pattern is declared too spread to learn.
const HYBRID_OOB_LIMIT: f64 = 0.10;

/// Time constant (seconds) of the exponentially-decayed arrival-rate
/// estimator: arrivals older than a few minutes stop influencing the
/// predictive autoscaler's demand estimate.
const ARRIVAL_RATE_TAU_S: f64 = 60.0;

impl KeepaliveState {
    /// Creates empty state for `policy`.
    pub fn new(policy: KeepalivePolicy) -> Self {
        KeepaliveState {
            policy,
            slots: Vec::new(),
            gaps: Vec::new(),
            arrivals: Vec::new(),
            stats: KeepaliveStats::default(),
        }
    }

    /// The accumulated prewarm/warm-memory counters.
    pub fn stats(&self) -> KeepaliveStats {
        self.stats
    }

    /// The slot of `function` (an empty one if it never ran).
    fn slot(&self, function: u32) -> Slot {
        self.slots
            .get(function as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Whether `function` has started on this rack before.
    pub(crate) fn has_run(&self, function: u32) -> bool {
        self.slot(function).last_finish != NEVER_RAN
    }

    /// The learned `(window, prewarm)` pair of the function in `slot`, if
    /// its hybrid histogram has learned a trustworthy pattern.
    fn learned(&self, slot: Slot) -> Option<(SimDuration, SimDuration)> {
        self.gaps
            .get(slot.gaps as usize)
            .and_then(GapRecord::learned)
    }

    /// The eviction and prewarm windows of the function in `slot`: see
    /// [`KeepaliveState::window`] and [`KeepaliveState::prewarm_window`].
    fn windows(&self, slot: Slot) -> (SimDuration, SimDuration) {
        match self.policy {
            KeepalivePolicy::NoKeepalive => (SimDuration::ZERO, SimDuration::ZERO),
            KeepalivePolicy::FixedWindow => (FIXED_WINDOW, SimDuration::ZERO),
            // Pattern unknown or too spread: stay conservative so a warm
            // container is never evicted early.
            KeepalivePolicy::HybridHistogram | KeepalivePolicy::HybridPrewarm => self
                .learned(slot)
                .unwrap_or((HYBRID_RANGE, SimDuration::ZERO)),
        }
    }

    /// The current keepalive window for `function`: how long past its last
    /// finish a warm container survives.
    pub fn window(&self, function: u32) -> SimDuration {
        self.windows(self.slot(function)).0
    }

    /// The current prewarm window for `function`: how long past its last
    /// finish the released container stays cold before it is proactively
    /// re-warmed. Zero — prewarming disabled, container warm from the finish
    /// on — unless the policy is [`KeepalivePolicy::HybridPrewarm`] and the
    /// function's pattern is learned.
    ///
    /// The window is the left edge of the bin covering the head percentile of
    /// observed idle gaps (the study's 5th-percentile prewarm point): at most
    /// 5% of the observed mass lies below it, which is exactly the
    /// accepted cold-start risk the released memory buys. A function whose
    /// gaps all land in the first bin gets a zero window — its container is
    /// never released, and prewarming degenerates to the plain hybrid
    /// keepalive. Always `<=` the eviction window.
    pub fn prewarm_window(&self, function: u32) -> SimDuration {
        self.windows(self.slot(function)).1
    }

    /// Whether an invocation of `function` arriving at `now` finds a warm
    /// container, given its most recent finish time. A function whose
    /// previous invocation is still running (finish in the future) is always
    /// warm; with prewarming, an idle gap shorter than the prewarm window
    /// lands before the proactive re-warm and runs cold.
    pub fn is_warm(&self, function: u32, now: SimTime) -> bool {
        let slot = self.slot(function);
        if slot.last_finish == NEVER_RAN {
            return false;
        }
        let idle = now.saturating_since(slot.last_finish);
        let (window, prewarm) = self.windows(slot);
        idle <= window && (idle.is_zero() || idle >= prewarm)
    }

    /// Records that an invocation of `function` starting at `now` will finish
    /// at `finish`, feeding the observed idle gap to the learning policy and
    /// the warm-memory ledger.
    pub fn record_invocation(&mut self, function: u32, now: SimTime, finish: SimTime) {
        let slot = self.slot(function);
        if slot.last_finish != NEVER_RAN {
            let idle = now.saturating_since(slot.last_finish);
            let (window, prewarm) = self.windows(slot);
            if idle <= window && (idle.is_zero() || idle >= prewarm) {
                // Warm start: the pool held memory from the prewarm point (or
                // the finish, without prewarming) until this arrival.
                self.stats.warm_seconds += idle.saturating_sub(prewarm).as_secs_f64();
                if !idle.is_zero() && self.prewarm_enabled() && self.learned(slot).is_some() {
                    self.stats.prewarm_hits += 1;
                }
            } else if idle > window {
                // Evicted before this arrival: the whole held window was
                // wasted.
                let held = window.saturating_sub(prewarm).as_secs_f64();
                self.stats.warm_seconds += held;
                self.stats.wasted_warm_seconds += held;
            }
            // Third case — cold because the arrival landed before the
            // prewarm point: the container was released at finish, so no
            // memory was held at all.
            if self.policy.learns() {
                let prewarm = self.prewarm_enabled();
                let record = match slot.gaps {
                    NO_GAPS => {
                        let index = u32::try_from(self.gaps.len())
                            .ok()
                            .filter(|&index| index != NO_GAPS)
                            .expect("gap records fit in a u32 index");
                        self.slots[function as usize].gaps = index;
                        self.gaps.push(GapRecord::new());
                        self.gaps.last_mut().expect("just pushed")
                    }
                    index => &mut self.gaps[index as usize],
                };
                record.observe(idle, prewarm);
            }
        }
        // Keep the furthest-out finish time: with many concurrent instances
        // the container pool stays warm until the last one drains.
        let last = &mut grow_to(&mut self.slots, function).last_finish;
        *last = if *last == NEVER_RAN {
            finish
        } else {
            (*last).max(finish)
        };
    }

    /// Closes the warm-memory ledger at the end of a run: every container
    /// still warm at `end` held its (remaining) window without a further
    /// reuse, which counts as wasted. Functions are flushed in slot order so
    /// the floating-point accumulation is deterministic.
    pub fn finish_accounting(&mut self, end: SimTime) {
        for index in 0..self.slots.len() {
            let slot = self.slots[index];
            if slot.last_finish == NEVER_RAN {
                continue;
            }
            let elapsed = end.saturating_since(slot.last_finish);
            let (window, prewarm) = self.windows(slot);
            let held = elapsed.min(window).saturating_sub(prewarm).as_secs_f64();
            self.stats.warm_seconds += held;
            self.stats.wasted_warm_seconds += held;
        }
    }

    /// Records that a request for `function` *arrived* at `now` (whether or
    /// not it could start immediately). The predictive autoscaler feeds this
    /// so its demand estimate tracks offered load rather than the throttled
    /// start rate a backlogged rack would otherwise observe.
    pub fn note_arrival(&mut self, function: u32, now: SimTime) {
        let track = grow_to(&mut self.arrivals, function);
        if track.count == 0 {
            *track = ArrivalTrack {
                count: 1,
                first: now,
                last: now,
                decayed: 1.0,
            };
            return;
        }
        let dt = now.saturating_since(track.last).as_secs_f64();
        track.decayed = track.decayed * (-dt / ARRIVAL_RATE_TAU_S).exp() + 1.0;
        track.count += 1;
        track.last = now;
    }

    /// Aggregate arrival-rate estimate in requests/second at `now`, from the
    /// per-function arrival statistics kept alongside the keepalive
    /// histograms.
    ///
    /// Each function contributes an *exponentially-decayed* rate: its arrival
    /// mass decays with a 60-second time constant, is decayed
    /// further to `now`, de-biased by the half-event a discrete sum
    /// over-counts, and normalised by the effective window
    /// `tau * (1 - exp(-age/tau))` so the estimate is unbiased during warmup
    /// too. A whole-history mean — the previous implementation — adapts to a
    /// diurnal rate shift only as fast as the history grows; the decayed
    /// estimate forgets the stale rate within a few time constants, which is
    /// what lets the predictive autoscaler track shifting demand (see the
    /// step-change unit test).
    ///
    /// Functions are summed in slot order so the floating-point accumulation
    /// is deterministic; functions that never arrived add no term, not even
    /// a zero. Zero until at least one function has two arrivals (via
    /// [`KeepaliveState::note_arrival`]).
    pub fn arrival_rate_estimate(&self, now: SimTime) -> f64 {
        self.arrivals
            .iter()
            .filter(|track| track.count > 0)
            .map(|track| {
                let age = now.saturating_since(track.first).as_secs_f64();
                if track.count < 2 || age <= 0.0 {
                    return 0.0;
                }
                let staleness = now.saturating_since(track.last).as_secs_f64();
                let mass = (track.decayed * (-staleness / ARRIVAL_RATE_TAU_S).exp() - 0.5).max(0.0);
                let window = ARRIVAL_RATE_TAU_S * (1.0 - (-age / ARRIVAL_RATE_TAU_S).exp());
                mass / window
            })
            .sum()
    }

    fn prewarm_enabled(&self) -> bool {
        self.policy == KeepalivePolicy::HybridPrewarm
    }

    #[cfg(test)]
    fn last_finish_for_test(&self, function: u32) -> SimTime {
        let finish = self.slot(function).last_finish;
        assert_ne!(finish, NEVER_RAN, "the function ran");
        finish
    }

    /// The dense bins of `function`'s gap record, or `None` while it has
    /// none (no record, or fewer than [`HYBRID_MIN_SAMPLES`] in-bounds gaps).
    #[cfg(test)]
    fn dense_bins_for_test(&self, function: u32) -> Option<Vec<u64>> {
        match &self.gaps.get(self.slot(function).gaps as usize)?.bins {
            GapBins::Dense { words, .. } => Some(
                words[CURSOR_WORDS..]
                    .iter()
                    .map(|&c| u64::from(c))
                    .collect(),
            ),
            GapBins::Sparse(_) => None,
        }
    }
}

/// The entry for `slot`, growing `table` with defaults to reach it.
fn grow_to<T: Default>(table: &mut Vec<T>, slot: u32) -> &mut T {
    let slot = slot as usize;
    if slot >= table.len() {
        table.resize_with(slot + 1, T::default);
    }
    &mut table[slot]
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use dscs_simcore::rng::DeterministicRng;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    thread_local! {
        /// Cursor moves on dense records' updates (densification not
        /// included), for the oracle's coverage counters: tail cursor left,
        /// tail cursor right, head cursor either way.
        static CURSOR_MOVES: std::cell::Cell<[usize; 3]> = const { std::cell::Cell::new([0; 3]) };
    }

    /// Counts the moves of one dense update into [`CURSOR_MOVES`].
    pub(super) fn note_cursor_moves(before: Cursors, after: Cursors) {
        CURSOR_MOVES.with(|moves| {
            let [mut left, mut right, mut head] = moves.get();
            left += usize::from(after.tail.bin < before.tail.bin);
            right += usize::from(after.tail.bin > before.tail.bin);
            head += usize::from(after.head.bin != before.head.bin);
            moves.set([left, right, head]);
        });
    }

    /// The dense keepalive bookkeeping the slot table replaced, kept as an
    /// independent reference: every function that ran owns an optional last
    /// finish, every function that observed a gap owns a full histogram from
    /// its first gap on, and every decision rescans the bins.
    struct ReferenceKeepalive {
        policy: KeepalivePolicy,
        last_finish: Vec<Option<SimTime>>,
        histograms: Vec<IdleHistogram>,
        stats: KeepaliveStats,
    }

    #[derive(Debug, Default)]
    struct IdleHistogram {
        bins: Vec<u64>,
        total: u64,
        out_of_bounds: u64,
    }

    impl IdleHistogram {
        fn observe(&mut self, idle: SimDuration) {
            let n_bins = (HYBRID_RANGE.as_nanos().div_ceil(HYBRID_BIN.as_nanos())) as usize;
            if self.bins.is_empty() {
                self.bins = vec![0; n_bins.max(1)];
            }
            let idx = (idle.as_nanos() / HYBRID_BIN.as_nanos()) as usize;
            if idx < self.bins.len() {
                self.bins[idx] += 1;
                self.total += 1;
            } else {
                self.out_of_bounds += 1;
            }
        }

        /// The bin index covering `tail` of the observed mass.
        fn tail_bin(&self, tail: f64) -> usize {
            let mut seen = 0u64;
            for (i, &count) in self.bins.iter().enumerate() {
                seen += count;
                if seen as f64 >= tail * self.total as f64 {
                    return i;
                }
            }
            self.bins.len().saturating_sub(1)
        }

        fn oob_rate(&self) -> f64 {
            let all = self.total + self.out_of_bounds;
            if all == 0 {
                0.0
            } else {
                self.out_of_bounds as f64 / all as f64
            }
        }
    }

    impl ReferenceKeepalive {
        fn new(policy: KeepalivePolicy) -> Self {
            ReferenceKeepalive {
                policy,
                last_finish: Vec::new(),
                histograms: Vec::new(),
                stats: KeepaliveStats::default(),
            }
        }

        fn learned(&self, function: u32) -> bool {
            self.histograms.get(function as usize).is_some_and(|hist| {
                hist.total >= HYBRID_MIN_SAMPLES && hist.oob_rate() <= HYBRID_OOB_LIMIT
            })
        }

        fn window(&self, function: u32) -> SimDuration {
            match self.policy {
                KeepalivePolicy::NoKeepalive => SimDuration::ZERO,
                KeepalivePolicy::FixedWindow => FIXED_WINDOW,
                KeepalivePolicy::HybridHistogram | KeepalivePolicy::HybridPrewarm => {
                    if !self.learned(function) {
                        return HYBRID_RANGE;
                    }
                    let hist = &self.histograms[function as usize];
                    let learned = HYBRID_BIN * (hist.tail_bin(HYBRID_TAIL) as u64 + 1);
                    (learned * HYBRID_MARGIN).min(HYBRID_RANGE)
                }
            }
        }

        fn prewarm_window(&self, function: u32) -> SimDuration {
            if self.policy != KeepalivePolicy::HybridPrewarm || !self.learned(function) {
                return SimDuration::ZERO;
            }
            let edge = self.histograms[function as usize].tail_bin(PREWARM_HEAD);
            (HYBRID_BIN * edge as u64).min(self.window(function))
        }

        fn is_warm(&self, function: u32, now: SimTime) -> bool {
            match self.last_finish.get(function as usize).copied().flatten() {
                None => false,
                Some(finish) => {
                    let idle = now.saturating_since(finish);
                    idle <= self.window(function)
                        && (idle.is_zero() || idle >= self.prewarm_window(function))
                }
            }
        }

        fn record_invocation(&mut self, function: u32, now: SimTime, finish: SimTime) {
            if let Some(prev) = self.last_finish.get(function as usize).copied().flatten() {
                let idle = now.saturating_since(prev);
                let window = self.window(function);
                let prewarm = self.prewarm_window(function);
                let prewarm_enabled = self.policy == KeepalivePolicy::HybridPrewarm;
                if idle <= window && (idle.is_zero() || idle >= prewarm) {
                    self.stats.warm_seconds += idle.saturating_sub(prewarm).as_secs_f64();
                    if !idle.is_zero() && prewarm_enabled && self.learned(function) {
                        self.stats.prewarm_hits += 1;
                    }
                } else if idle > window {
                    let held = window.saturating_sub(prewarm).as_secs_f64();
                    self.stats.warm_seconds += held;
                    self.stats.wasted_warm_seconds += held;
                }
                if matches!(
                    self.policy,
                    KeepalivePolicy::HybridHistogram | KeepalivePolicy::HybridPrewarm
                ) {
                    grow_to(&mut self.histograms, function).observe(idle);
                }
            }
            let last = grow_to(&mut self.last_finish, function);
            *last = Some(last.map_or(finish, |prev| prev.max(finish)));
        }

        fn finish_accounting(&mut self, end: SimTime) {
            for function in 0..self.last_finish.len() as u32 {
                let Some(finish) = self.last_finish[function as usize] else {
                    continue;
                };
                let elapsed = end.saturating_since(finish);
                let window = self.window(function);
                let prewarm = self.prewarm_window(function);
                let held = elapsed.min(window).saturating_sub(prewarm).as_secs_f64();
                self.stats.warm_seconds += held;
                self.stats.wasted_warm_seconds += held;
            }
        }
    }

    /// Seeded property test: on random invocation streams the slot table
    /// agrees with the dense reference step by step, under every keepalive
    /// policy. The streams mix overlapping invocations, gaps beyond the
    /// histogram range, sparse slot ids and functions on both sides of the
    /// learning threshold; the coverage counters at the end check that each
    /// of those occurred, and that the incremental cursors behind the
    /// learned windows moved both ways.
    #[test]
    fn slot_table_matches_the_dense_reference() {
        const CASES: u64 = 256;
        let (mut learned, mut sparse, mut dense, mut prewarmed, mut oob) = (0, 0, 0, 0, 0);
        CURSOR_MOVES.with(|moves| moves.set([0; 3]));
        let range = HYBRID_RANGE;
        for case in 0..CASES {
            let mut rng =
                DeterministicRng::seeded(0x4B41 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // A few functions on sparse slot ids, plus one that never runs.
            let functions: Vec<u32> = (0..1 + rng.next_index(6))
                .map(|_| rng.next_index(5000) as u32)
                .collect();
            let never_ran = 5000;
            let p_oob = [0.0, 0.01, 0.05, 0.3][rng.next_index(4)];
            let mean_gap = range.as_secs_f64() / (2.0 * functions.len() as f64);
            let mut now = SimTime::ZERO;
            let stream: Vec<(u32, SimTime, SimTime)> = (0..50 + rng.next_index(400))
                .map(|_| {
                    let gap = if rng.bernoulli(0.1) {
                        0.0
                    } else if rng.bernoulli(p_oob) {
                        rng.uniform(1.0, 1.5) * range.as_secs_f64()
                    } else {
                        rng.uniform(0.0, 2.0 * mean_gap)
                    };
                    now += SimDuration::from_secs_f64(gap);
                    // Mostly short services; some long enough that the
                    // function's next invocations overlap this one.
                    let service = if rng.bernoulli(0.05) {
                        rng.uniform(0.0, range.as_secs_f64())
                    } else {
                        rng.uniform(0.01, 2.0)
                    };
                    let function = *rng.choose(&functions);
                    (function, now, now + SimDuration::from_secs_f64(service))
                })
                .collect();
            let end = now + SimDuration::from_secs(30);

            for policy in KeepalivePolicy::ALL {
                let mut state = KeepaliveState::new(policy);
                let mut reference = ReferenceKeepalive::new(policy);
                for (step, &(function, now, finish)) in stream.iter().enumerate() {
                    for f in functions.iter().copied().chain([never_ran]) {
                        let at = (case, policy, step, f);
                        assert_eq!(state.is_warm(f, now), reference.is_warm(f, now), "{at:?}");
                        assert_eq!(state.window(f), reference.window(f), "{at:?}");
                        assert_eq!(
                            state.prewarm_window(f),
                            reference.prewarm_window(f),
                            "{at:?}"
                        );
                    }
                    state.record_invocation(function, now, finish);
                    reference.record_invocation(function, now, finish);
                    assert_eq!(state.stats(), reference.stats, "case {case}, step {step}");
                }
                state.finish_accounting(end);
                reference.finish_accounting(end);
                assert_eq!(state.stats(), reference.stats, "case {case}, {policy:?}");

                if policy.learns() {
                    for &f in &functions {
                        let hist = reference.histograms.get(f as usize);
                        oob += usize::from(hist.is_some_and(|h| h.out_of_bounds > 0));
                        match state.dense_bins_for_test(f) {
                            Some(bins) => {
                                dense += 1;
                                assert_eq!(Some(&bins), hist.map(|h| &h.bins), "case {case}");
                            }
                            None => sparse += 1,
                        }
                        learned += usize::from(reference.learned(f));
                        prewarmed += usize::from(state.prewarm_window(f) > SimDuration::ZERO);
                    }
                }
            }
        }
        let [tail_left, tail_right, head_moves] = CURSOR_MOVES.with(|moves| moves.get());
        for (what, count) in [
            ("learned", learned),
            ("sparse", sparse),
            ("dense", dense),
            ("prewarmed", prewarmed),
            ("out-of-bounds", oob),
            ("tail-cursor-left", tail_left),
            ("tail-cursor-right", tail_right),
            ("head-cursor", head_moves),
        ] {
            assert!(count > 0, "no {what} function in any case");
        }
    }

    /// The footprint rule: a function owns no dense bins until its tenth
    /// in-bounds gap, which makes it dense with exactly the counts the full
    /// histogram held. Gaps beyond the range do not count towards the ten.
    #[test]
    fn dense_bins_appear_with_the_tenth_in_bounds_gap() {
        let policy = KeepalivePolicy::HybridPrewarm;
        let mut state = KeepaliveState::new(policy);
        let mut reference = ReferenceKeepalive::new(policy);
        let mut now = secs(0);
        state.record_invocation(3, now, now + SimDuration::from_secs(1));
        reference.record_invocation(3, now, now + SimDuration::from_secs(1));
        let mut in_bounds = 0;
        for gap in [15, 25, 700, 35, 5, 45, 15, 900, 15, 95, 25, 55, 45] {
            now += SimDuration::from_secs(1 + gap);
            state.record_invocation(3, now, now + SimDuration::from_secs(1));
            reference.record_invocation(3, now, now + SimDuration::from_secs(1));
            in_bounds += u64::from(gap < 600);
            if in_bounds < HYBRID_MIN_SAMPLES {
                assert_eq!(state.dense_bins_for_test(3), None, "{in_bounds} gaps");
            } else {
                assert_eq!(
                    state.dense_bins_for_test(3).as_ref(),
                    Some(&reference.histograms[3].bins),
                    "{in_bounds} gaps"
                );
            }
        }
        assert!(
            in_bounds > HYBRID_MIN_SAMPLES,
            "the walk crosses the threshold"
        );
        // A function that never observed a gap owns no record at all.
        state.record_invocation(8, now, now + SimDuration::from_secs(1));
        assert_eq!(state.dense_bins_for_test(8), None);
        assert_eq!(state.gaps.len(), 1);
    }

    /// A per-benchmark service table from milliseconds.
    fn millis(table: [u64; BENCHMARKS]) -> [SimDuration; BENCHMARKS] {
        table.map(SimDuration::from_millis)
    }

    #[test]
    fn fcfs_pops_in_submission_order() {
        let mut q = SchedQueue::new(SchedulerPolicy::Fcfs, &millis([5, 4, 3, 2, 1, 1, 1, 1]));
        for i in 0..5 {
            q.push(i, Benchmark::ALL[i % 8]);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sjf_pops_cheapest_first_with_fifo_ties() {
        let mut q = SchedQueue::new(
            SchedulerPolicy::ShortestJobFirst,
            &millis([30, 10, 10, 20, 40, 40, 40, 40]),
        );
        q.push(0, Benchmark::ALL[0]);
        q.push(1, Benchmark::ALL[1]);
        q.push(2, Benchmark::ALL[2]);
        q.push(3, Benchmark::ALL[3]);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn fair_round_robins_across_benchmarks() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark, &millis([1; BENCHMARKS]));
        // Three requests of benchmark 0, one of benchmark 1.
        q.push(10, Benchmark::ALL[0]);
        q.push(11, Benchmark::ALL[0]);
        q.push(12, Benchmark::ALL[0]);
        q.push(20, Benchmark::ALL[1]);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        // The lone benchmark-1 request is served second, not last.
        assert_eq!(order, vec![10, 20, 11, 12]);
        assert!(q.is_empty());
    }

    /// The three disciplines the class queues replaced, kept as an
    /// independent reference: one FIFO deque, a min-heap on
    /// `(service, submission seq)`, and a cursor scan over per-benchmark
    /// deques, with the length summed from the live structures.
    struct ReferenceSchedQueue {
        policy: SchedulerPolicy,
        fcfs: VecDeque<usize>,
        sjf: BinaryHeap<Reverse<(u64, u64, usize)>>,
        seq: u64,
        per_bench: Vec<VecDeque<usize>>,
        cursor: usize,
    }

    impl ReferenceSchedQueue {
        fn new(policy: SchedulerPolicy) -> Self {
            ReferenceSchedQueue {
                policy,
                fcfs: VecDeque::new(),
                sjf: BinaryHeap::new(),
                seq: 0,
                per_bench: (0..BENCHMARKS).map(|_| VecDeque::new()).collect(),
                cursor: 0,
            }
        }

        fn len(&self) -> usize {
            match self.policy {
                SchedulerPolicy::Fcfs => self.fcfs.len(),
                SchedulerPolicy::ShortestJobFirst => self.sjf.len(),
                SchedulerPolicy::FairPerBenchmark => self.per_bench.iter().map(VecDeque::len).sum(),
            }
        }

        fn push(&mut self, idx: usize, benchmark: Benchmark, service: SimDuration) {
            match self.policy {
                SchedulerPolicy::Fcfs => self.fcfs.push_back(idx),
                SchedulerPolicy::ShortestJobFirst => {
                    self.sjf.push(Reverse((service.as_nanos(), self.seq, idx)));
                    self.seq += 1;
                }
                SchedulerPolicy::FairPerBenchmark => {
                    self.per_bench[benchmark as usize].push_back(idx);
                }
            }
        }

        fn pop(&mut self) -> Option<usize> {
            match self.policy {
                SchedulerPolicy::Fcfs => self.fcfs.pop_front(),
                SchedulerPolicy::ShortestJobFirst => self.sjf.pop().map(|Reverse((_, _, idx))| idx),
                SchedulerPolicy::FairPerBenchmark => {
                    let n = self.per_bench.len();
                    for step in 0..n {
                        let b = (self.cursor + step) % n;
                        if let Some(idx) = self.per_bench[b].pop_front() {
                            self.cursor = (b + 1) % n;
                            return Some(idx);
                        }
                    }
                    None
                }
            }
        }
    }

    /// Seeded property test: under every policy, random push and pop
    /// sequences pop the same requests from the class queues as from the
    /// reference, and the lengths agree after every operation. Service
    /// tables draw from at most three values, so benchmarks tie; some cases
    /// favour one hot benchmark. The coverage counters at the end check that
    /// queues both grew deep and drained empty mid-run.
    #[test]
    fn class_queues_match_the_reference_disciplines() {
        const CASES: u64 = 96;
        let (mut deep, mut drained) = (0, 0);
        for case in 0..CASES {
            let mut rng =
                DeterministicRng::seeded(0x5C4E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let values: Vec<u64> = (0..3).map(|_| 1 + rng.next_index(4) as u64).collect();
            let times: [SimDuration; BENCHMARKS] =
                std::array::from_fn(|_| SimDuration::from_micros(*rng.choose(&values)));
            let push_share = rng.uniform(0.3, 0.8);
            let hot = rng.bernoulli(0.5).then(|| rng.next_index(BENCHMARKS));
            for policy in SchedulerPolicy::ALL {
                let mut queue = SchedQueue::new(policy, &times);
                let mut reference = ReferenceSchedQueue::new(policy);
                let mut depth = 0;
                for step in 0..400 {
                    if rng.bernoulli(push_share) {
                        let b = match hot {
                            Some(b) if rng.bernoulli(0.6) => b,
                            _ => rng.next_index(BENCHMARKS),
                        };
                        queue.push(step, Benchmark::ALL[b]);
                        reference.push(step, Benchmark::ALL[b], times[b]);
                    } else {
                        assert_eq!(
                            queue.pop(),
                            reference.pop(),
                            "case {case}, {policy:?}, step {step}: popped request"
                        );
                        if depth > 0 && reference.len() == 0 {
                            drained += 1;
                        }
                    }
                    depth = reference.len();
                    if depth >= 32 {
                        deep += 1;
                    }
                    assert_eq!(
                        queue.len(),
                        depth,
                        "case {case}, {policy:?}, step {step}: length"
                    );
                    assert_eq!(queue.is_empty(), depth == 0);
                }
                while depth > 0 {
                    assert_eq!(
                        queue.pop(),
                        reference.pop(),
                        "case {case}, {policy:?}: drain"
                    );
                    depth -= 1;
                    assert_eq!(queue.len(), depth);
                }
                assert_eq!(queue.pop(), None);
                assert!(queue.is_empty());
            }
        }
        assert!(
            deep > 0 && drained > 0,
            "coverage: {deep} deep steps, {drained} mid-run drains"
        );
    }

    #[test]
    fn no_keepalive_is_always_cold_after_finish() {
        let mut s = KeepaliveState::new(KeepalivePolicy::NoKeepalive);
        assert!(!s.is_warm(0, secs(0)));
        s.record_invocation(0, secs(0), secs(1));
        // Still running: warm.
        assert!(s.is_warm(0, secs(1)));
        // One nanosecond after finish: cold.
        assert!(!s.is_warm(0, SimTime::from_nanos(1_000_000_001)));
    }

    #[test]
    fn fixed_window_honours_its_window() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        s.record_invocation(7, secs(0), secs(10));
        assert!(s.is_warm(7, secs(610)));
        assert!(!s.is_warm(7, secs(611)));
    }

    #[test]
    fn hybrid_starts_conservative_then_learns_the_tail() {
        let mut s = KeepaliveState::new(KeepalivePolicy::HybridHistogram);
        // Unknown function: full range.
        assert_eq!(s.window(3), SimDuration::from_secs(600));
        // Invocations every ~25 s: idle gaps land in the 20-30 s bin.
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(3, secs(t), secs(t + 1));
            t += 26;
        }
        let w = s.window(3);
        assert!(
            w >= SimDuration::from_secs(30) && w < SimDuration::from_secs(60),
            "learned window {w}"
        );
        // The learned window still covers the observed pattern.
        assert!(s.is_warm(3, s.last_finish_for_test(3) + SimDuration::from_secs(25)));
    }

    #[test]
    fn hybrid_never_shrinks_below_observed_tail() {
        let mut s = KeepaliveState::new(KeepalivePolicy::HybridHistogram);
        let mut t = 0u64;
        for _ in 0..50 {
            s.record_invocation(1, secs(t), secs(t + 1));
            t += 45; // 44 s idle gaps
        }
        // Window must cover the 44 s gaps (bin 4 -> >= 50 s).
        assert!(s.window(1) >= SimDuration::from_secs(45), "{}", s.window(1));
    }

    #[test]
    fn concurrent_instances_keep_the_pool_warm() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        s.record_invocation(0, secs(0), secs(100));
        // A shorter invocation that finishes earlier: the window still runs
        // from the long-running instance's finish.
        s.record_invocation(0, secs(1), secs(2));
        assert!(s.is_warm(0, secs(700)), "long-running instance keeps warm");
        assert!(!s.is_warm(0, secs(701)));
    }

    /// `len`/`is_empty` stay consistent with the fair round-robin
    /// subqueues across interleaved pushes, pops and full drains, including
    /// pops on an already-empty queue.
    #[test]
    fn fair_queue_len_stays_consistent_through_drains() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark, &millis([1; BENCHMARKS]));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "pop on empty returns None");
        assert_eq!(q.len(), 0, "pop on empty must not desync len");

        // Uneven load: three requests on benchmark 0, one on benchmark 3.
        q.push(0, Benchmark::ALL[0]);
        q.push(1, Benchmark::ALL[0]);
        q.push(2, Benchmark::ALL[3]);
        q.push(3, Benchmark::ALL[0]);
        assert_eq!(q.len(), 4);

        let mut remaining = 4;
        while q.pop().is_some() {
            remaining -= 1;
            assert_eq!(q.len(), remaining, "len tracks the live subqueues");
            assert_eq!(q.is_empty(), remaining == 0);
        }
        assert_eq!(remaining, 0);

        // After a full drain the stale (empty) subqueues and the round-robin
        // cursor must not leak phantom length.
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);

        // The queue keeps working after the drain.
        q.push(9, Benchmark::ALL[5]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(9));
        assert!(q.is_empty());
    }

    #[test]
    fn scaling_policy_names_and_defaults() {
        assert_eq!(ScalingPolicy::Fixed.name(), "fixed");
        assert_eq!(ScalingPolicy::Reactive.name(), "reactive");
        assert_eq!(ScalingPolicy::Predictive.name(), "predictive");
        assert_eq!(
            ScalingPolicy::ALL,
            [
                ScalingPolicy::Fixed,
                ScalingPolicy::Reactive,
                ScalingPolicy::Predictive
            ]
        );
    }

    #[test]
    fn prewarm_window_is_zero_until_the_pattern_is_learned() {
        let mut s = KeepaliveState::new(KeepalivePolicy::HybridPrewarm);
        assert_eq!(s.prewarm_window(0), SimDuration::ZERO);
        // Reliable 45 s gaps: the head percentile floor lands at the 40 s bin
        // edge once learned, and stays below the eviction window.
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(0, secs(t), secs(t + 1));
            t += 46;
        }
        let prewarm = s.prewarm_window(0);
        assert_eq!(prewarm, SimDuration::from_secs(40), "head-bin left edge");
        assert!(prewarm <= s.window(0));
    }

    #[test]
    fn prewarm_releases_the_container_before_its_window() {
        let mut s = KeepaliveState::new(KeepalivePolicy::HybridPrewarm);
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(7, secs(t), secs(t + 1));
            t += 46;
        }
        let finish = s.last_finish_for_test(7);
        // Before the prewarm point: released, cold (except while running).
        assert!(s.is_warm(7, finish), "still running/just finished is warm");
        assert!(
            !s.is_warm(7, finish + SimDuration::from_secs(10)),
            "released before the prewarm point"
        );
        // Between prewarm and eviction: proactively warmed.
        assert!(s.is_warm(7, finish + SimDuration::from_secs(45)));
        // Past the eviction window: evicted.
        assert!(!s.is_warm(7, finish + SimDuration::from_secs(599)));
    }

    #[test]
    fn prewarm_hits_and_warm_seconds_accumulate() {
        let mut s = KeepaliveState::new(KeepalivePolicy::HybridPrewarm);
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(3, secs(t), secs(t + 1));
            t += 46;
        }
        let stats = s.stats();
        assert!(stats.prewarm_hits > 0, "learned arrivals count as hits");
        assert!(stats.warm_seconds > 0.0);
        // Without prewarming the same history holds strictly more memory.
        let mut baseline = KeepaliveState::new(KeepalivePolicy::HybridHistogram);
        let mut t = 0u64;
        for _ in 0..40 {
            baseline.record_invocation(3, secs(t), secs(t + 1));
            t += 46;
        }
        assert_eq!(baseline.stats().prewarm_hits, 0);
        assert!(baseline.stats().warm_seconds > stats.warm_seconds);
    }

    #[test]
    fn finish_accounting_charges_residual_warmth_as_wasted() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        s.record_invocation(0, secs(0), secs(10));
        s.finish_accounting(secs(1000));
        let stats = s.stats();
        assert!((stats.warm_seconds - 600.0).abs() < 1e-9, "{stats:?}");
        assert!(
            (stats.wasted_warm_seconds - 600.0).abs() < 1e-9,
            "{stats:?}"
        );

        let mut none = KeepaliveState::new(KeepalivePolicy::NoKeepalive);
        none.record_invocation(0, secs(0), secs(10));
        none.finish_accounting(secs(1000));
        assert_eq!(none.stats().warm_seconds, 0.0, "no-keepalive holds nothing");
        stats.assert_closed();
        none.stats().assert_closed();
    }

    fn ledger(warm_seconds: f64, wasted_warm_seconds: f64) -> KeepaliveStats {
        KeepaliveStats {
            warm_seconds,
            wasted_warm_seconds,
            ..KeepaliveStats::default()
        }
    }

    #[test]
    #[should_panic(expected = "0 <= wasted <= warm seconds at drain invariant broken")]
    fn a_negative_ledger_breaks_the_drain_invariant() {
        ledger(2.0, 2.0).assert_closed();
        ledger(-1.0, -1.0).assert_closed();
    }

    #[test]
    #[should_panic(expected = "finite warm seconds at drain invariant broken")]
    fn a_nan_ledger_breaks_the_drain_invariant() {
        ledger(f64::NAN, 0.0).assert_closed();
    }

    #[test]
    #[should_panic(expected = "0 <= wasted <= warm seconds at drain invariant broken")]
    fn wasting_more_than_was_held_breaks_the_drain_invariant() {
        ledger(1.0, 2.0).assert_closed();
    }

    #[test]
    fn arrival_rate_estimate_tracks_noted_arrivals() {
        // One arrival every 20 s => 0.05 req/s, under any keepalive policy.
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        assert_eq!(s.arrival_rate_estimate(secs(0)), 0.0, "no observations yet");
        for i in 0..30u64 {
            s.note_arrival(0, secs(i * 20));
        }
        let rate = s.arrival_rate_estimate(secs(29 * 20));
        assert!(
            (rate - 0.05).abs() < 0.05 * 0.05,
            "estimate {rate} should be within 5% of 1/20"
        );
        // Two functions sum their rates; sub-second inter-arrivals resolve
        // exactly (a binned estimator could not see past its bin width).
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        for i in 0..30u64 {
            s.note_arrival(0, secs(i * 20));
        }
        for i in 0..601u64 {
            s.note_arrival(1, secs(520) + SimDuration::from_millis(i * 100));
        }
        let rate = s.arrival_rate_estimate(secs(580));
        assert!(
            (rate - 10.05).abs() < 0.5,
            "estimate {rate} should be ~10.05"
        );
    }

    /// Satellite regression test: the exponentially-decayed estimator
    /// converges to a step change in the offered rate much faster than the
    /// whole-history mean it replaced — the lag the ROADMAP called out.
    #[test]
    fn decayed_estimate_tracks_a_rate_step_faster_than_whole_history() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        // Phase 1: 600 s at 0.1 req/s (one arrival every 10 s).
        let mut count = 0u64;
        for i in 0..60u64 {
            s.note_arrival(0, secs(i * 10));
            count += 1;
        }
        // Phase 2: the rate steps to 1 req/s for 240 s (four time constants).
        let mut last = secs(590);
        for i in 0..241u64 {
            last = secs(600 + i);
            s.note_arrival(0, last);
            count += 1;
        }
        let windowed = s.arrival_rate_estimate(last);
        let whole_history = (count - 1) as f64 / last.saturating_since(secs(0)).as_secs_f64();
        let true_rate = 1.0;
        assert!(
            (windowed - true_rate).abs() < 0.1,
            "decayed estimate {windowed} should sit near the new rate"
        );
        assert!(
            (whole_history - true_rate).abs() > 5.0 * (windowed - true_rate).abs(),
            "whole-history {whole_history} must lag far behind windowed {windowed}"
        );
    }

    /// After a long silence the decayed estimate forgets the old rate; the
    /// whole-history mean cannot.
    #[test]
    fn decayed_estimate_fades_when_arrivals_stop() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow);
        for i in 0..120u64 {
            s.note_arrival(0, secs(i));
        }
        let active = s.arrival_rate_estimate(secs(119));
        assert!(active > 0.8, "active estimate {active}");
        let faded = s.arrival_rate_estimate(secs(119 + 600));
        assert!(
            faded < 0.01 * active,
            "ten time constants of silence must fade the estimate: {faded}"
        );
    }
}
