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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dscs_core::benchmarks::Benchmark;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::experiment::ConfigError;

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeepalivePolicy {
    /// Evict immediately: every non-concurrent invocation is a cold start.
    NoKeepalive,
    /// Keep every container warm for a fixed window after its last use
    /// (OpenWhisk-style; the paper assumes 10 minutes).
    FixedWindow(SimDuration),
    /// Hybrid histogram (after *Serverless in the Wild*): learn each
    /// function's idle-time distribution in a per-function histogram and keep
    /// the container warm to the tail percentile of observed idle times,
    /// falling back to `range` while the pattern is uncertain.
    ///
    /// With `head > 0`, the policy also *prewarms*: once a function's pattern
    /// is learned, its container is released at finish (freeing its memory)
    /// and proactively re-warmed at the head percentile of the observed idle
    /// gaps, so the predicted next invocation still finds a warm instance —
    /// the study's head/tail window pair. `head == 0` disables prewarming and
    /// keeps the container warm for the whole eviction window, the pre-PR-3
    /// behaviour.
    HybridHistogram {
        /// Maximum window (and histogram span).
        range: SimDuration,
        /// Histogram bin width.
        bin: SimDuration,
        /// Prewarm head percentile in `[0, 1)`; `0` disables prewarming.
        head: f64,
    },
}

impl KeepalivePolicy {
    /// The paper's fixed 10-minute keepalive.
    pub fn paper_default() -> Self {
        KeepalivePolicy::FixedWindow(SimDuration::from_secs(600))
    }

    /// The default hybrid-histogram configuration (10-minute range, 10-second
    /// bins — scaled-down analogues of the 4-hour/1-minute Azure study),
    /// without prewarming.
    pub fn hybrid_default() -> Self {
        KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        }
    }

    /// The hybrid histogram with its prewarm window enabled at the study's
    /// 5th-percentile head.
    pub fn prewarm_default() -> Self {
        KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.05,
        }
    }

    /// A representative instance of every keepalive policy.
    pub fn all_default() -> [KeepalivePolicy; 4] {
        [
            KeepalivePolicy::NoKeepalive,
            KeepalivePolicy::paper_default(),
            KeepalivePolicy::hybrid_default(),
            KeepalivePolicy::prewarm_default(),
        ]
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KeepalivePolicy::NoKeepalive => "no-keepalive",
            KeepalivePolicy::FixedWindow(_) => "fixed-window",
            KeepalivePolicy::HybridHistogram { head, .. } if *head > 0.0 => "hybrid-prewarm",
            KeepalivePolicy::HybridHistogram { .. } => "hybrid-histogram",
        }
    }

    /// Checks the policy parameters, returning the first violation found.
    /// Only the hybrid histogram has parameters to get wrong: a zero bin
    /// width or a range shorter than one bin (a degenerate histogram), a
    /// prewarm head at or above the tail percentile the eviction window is
    /// sized from ([`HYBRID_TAIL`]) — the proactive re-warm would land at or
    /// after the container's own eviction, so the prewarm could never land —
    /// and a negative or NaN head.
    pub fn check(&self) -> Result<(), ConfigError> {
        let KeepalivePolicy::HybridHistogram { range, bin, head } = *self else {
            return Ok(());
        };
        if bin.is_zero() {
            return Err(ConfigError::ZeroHistogramBin);
        }
        if range < bin {
            return Err(ConfigError::HistogramRangeBelowBin { range, bin });
        }
        if head >= HYBRID_TAIL {
            return Err(ConfigError::PrewarmHeadAboveTail {
                head,
                tail: HYBRID_TAIL,
            });
        }
        if !(0.0..1.0).contains(&head) {
            return Err(ConfigError::PrewarmHeadOutOfRange { head });
        }
        Ok(())
    }
}

/// Default queue depth above which the locality-aware balancer abandons a
/// replica rack and spills to the least-loaded rack.
pub const DEFAULT_SPILL_THRESHOLD: usize = 64;

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
    /// least-loaded rack — paying the fetch — once the best replica rack's
    /// queue exceeds `spill_threshold`. This is the locality-vs-load tension
    /// the in-storage execution model lives on: data does not move, so either
    /// the request goes to the data or the bytes cross the fabric.
    LocalityAware {
        /// Queue depth at a replica rack beyond which the request spills to
        /// the least-loaded rack instead.
        spill_threshold: usize,
    },
}

impl LoadBalancer {
    /// Every balancer (the locality policy at its default spill threshold).
    pub const ALL: [LoadBalancer; 3] = [
        LoadBalancer::RoundRobin,
        LoadBalancer::LeastLoaded,
        LoadBalancer::LocalityAware {
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        },
    ];

    /// The locality-aware balancer at its default spill threshold.
    pub fn locality_default() -> Self {
        LoadBalancer::LocalityAware {
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        }
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancer::RoundRobin => "round-robin",
            LoadBalancer::LeastLoaded => "least-loaded",
            LoadBalancer::LocalityAware { .. } => "locality",
        }
    }
}

/// How a rack's function-instance pool grows and shrinks.
///
/// The paper pins each rack at a fixed 200-instance cap. Production
/// serverless platforms instead scale the pool elastically: reactively on
/// observed queue pressure, or predictively from learned arrival rates. Both
/// elastic policies respect the rack's `[min_instances, max_instances]`
/// bounds and pay a modelled provisioning delay on every scale-up, so the
/// simulation exposes the scaling-lag vs. cold-start tradeoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingPolicy {
    /// The paper's policy: the rack always runs `max_instances`.
    Fixed,
    /// Queue-depth reactive scaling, evaluated every `interval`: grow by
    /// `step` while the queue is at or above `scale_up_queue`, shrink by
    /// `step` while it is at or below `scale_down_queue`.
    Reactive {
        /// Queue depth at or above which the rack requests more instances.
        scale_up_queue: usize,
        /// Queue depth at or below which the rack releases instances.
        scale_down_queue: usize,
        /// Instances added or removed per scaling decision.
        step: u32,
        /// Decision evaluation interval (the policy's reaction lag).
        interval: SimDuration,
    },
    /// Predictive scaling, evaluated every `interval`: size the pool to the
    /// keepalive histograms' aggregate arrival-rate estimate times the mean
    /// modelled service time, padded by `headroom`.
    Predictive {
        /// Decision evaluation interval.
        interval: SimDuration,
        /// Capacity multiplier on the predicted demand (>= 1 keeps slack).
        headroom: f64,
    },
}

impl ScalingPolicy {
    /// The default reactive configuration: react every 5 seconds, grow by 32
    /// instances when 32+ requests queue, shrink when the queue is nearly
    /// empty.
    pub fn reactive_default() -> Self {
        ScalingPolicy::Reactive {
            scale_up_queue: 32,
            scale_down_queue: 2,
            step: 32,
            interval: SimDuration::from_secs(5),
        }
    }

    /// The default predictive configuration: re-estimate every 5 seconds with
    /// 25% capacity headroom over the predicted demand.
    pub fn predictive_default() -> Self {
        ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom: 1.25,
        }
    }

    /// A representative instance of every scaling policy.
    pub fn all_default() -> [ScalingPolicy; 3] {
        [
            ScalingPolicy::Fixed,
            ScalingPolicy::reactive_default(),
            ScalingPolicy::predictive_default(),
        ]
    }

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicy::Fixed => "fixed",
            ScalingPolicy::Reactive { .. } => "reactive",
            ScalingPolicy::Predictive { .. } => "predictive",
        }
    }

    /// The decision interval, or `None` for the fixed cap (which never
    /// re-evaluates).
    pub fn interval(&self) -> Option<SimDuration> {
        match self {
            ScalingPolicy::Fixed => None,
            ScalingPolicy::Reactive { interval, .. }
            | ScalingPolicy::Predictive { interval, .. } => Some(*interval),
        }
    }

    /// Checks the policy parameters, returning the first violation found: a
    /// zero decision interval (the simulation would tick forever without
    /// advancing), a zero reactive step, overlapping reactive thresholds, or
    /// a non-finite / sub-unit predictive headroom.
    pub fn check(&self) -> Result<(), ConfigError> {
        match self {
            ScalingPolicy::Fixed => Ok(()),
            ScalingPolicy::Reactive {
                scale_up_queue,
                scale_down_queue,
                step,
                interval,
            } => {
                if interval.is_zero() {
                    return Err(ConfigError::ZeroScalingInterval { policy: "reactive" });
                }
                if *step == 0 {
                    return Err(ConfigError::ZeroReactiveStep);
                }
                if scale_down_queue >= scale_up_queue {
                    return Err(ConfigError::OverlappingReactiveThresholds {
                        scale_up_queue: *scale_up_queue,
                        scale_down_queue: *scale_down_queue,
                    });
                }
                Ok(())
            }
            ScalingPolicy::Predictive { interval, headroom } => {
                if interval.is_zero() {
                    return Err(ConfigError::ZeroScalingInterval {
                        policy: "predictive",
                    });
                }
                if !(headroom.is_finite() && *headroom >= 1.0) {
                    return Err(ConfigError::InvalidPredictiveHeadroom {
                        headroom: *headroom,
                    });
                }
                Ok(())
            }
        }
    }
}

/// A policy-driven scheduler queue over request indices into a trace.
///
/// All disciplines are deterministic: ties (equal service times, the
/// round-robin cursor) resolve by submission order.
///
/// `len`/`is_empty` are derived from the underlying per-policy structures
/// rather than a separately maintained counter. An earlier revision cached
/// the count and decremented it on pop, which under the fair round-robin
/// policy left the cached value trusting that no per-benchmark subqueue went
/// stale between a drain and the next audit; deriving the count makes the
/// accessors structurally consistent with the subqueues by construction.
#[derive(Debug)]
pub struct SchedQueue {
    policy: SchedulerPolicy,
    fcfs: VecDeque<usize>,
    // SJF: min-heap on (service nanos, submission seq), so equal service
    // times pop in FIFO order.
    sjf: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    per_bench: Vec<VecDeque<usize>>,
    cursor: usize,
}

impl SchedQueue {
    /// Creates an empty queue under `policy`.
    pub fn new(policy: SchedulerPolicy) -> Self {
        SchedQueue {
            policy,
            fcfs: VecDeque::new(),
            sjf: BinaryHeap::new(),
            seq: 0,
            per_bench: (0..Benchmark::ALL.len()).map(|_| VecDeque::new()).collect(),
            cursor: 0,
        }
    }

    /// Number of queued requests, counted from the live per-policy structures.
    pub fn len(&self) -> usize {
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs.len(),
            SchedulerPolicy::ShortestJobFirst => self.sjf.len(),
            SchedulerPolicy::FairPerBenchmark => self.per_bench.iter().map(VecDeque::len).sum(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues trace index `idx` for `benchmark` with modelled service time
    /// `service` (used by shortest-job-first ordering).
    pub fn push(&mut self, idx: usize, benchmark: Benchmark, service: SimDuration) {
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

    /// Removes and returns the next request to start, per the policy.
    pub fn pop(&mut self) -> Option<usize> {
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs.pop_front(),
            SchedulerPolicy::ShortestJobFirst => self.sjf.pop().map(|Reverse((_, _, idx))| idx),
            SchedulerPolicy::FairPerBenchmark => {
                let n = self.per_bench.len();
                let mut found = None;
                for step in 0..n {
                    let b = (self.cursor + step) % n;
                    if let Some(idx) = self.per_bench[b].pop_front() {
                        self.cursor = (b + 1) % n;
                        found = Some(idx);
                        break;
                    }
                }
                found
            }
        }
    }
}

/// Runtime warm/cold bookkeeping for one rack under a [`KeepalivePolicy`].
///
/// Tracks, per function, when its most recent invocation finishes and (for
/// the hybrid policy) a histogram of observed idle gaps. Functions are
/// identified by dense *slots* (`0..n`, one per distinct function of the
/// trace, in ascending function-id order), and the state is indexed by slot:
/// the slot table grows to the highest slot seen. Per-function sums run in
/// slot order, so they are deterministic.
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
/// function has elapsed. With a prewarm head
/// percentile configured, the container is instead *released* at finish and
/// proactively re-warmed at the head percentile of the learned idle gaps —
/// trading a sliver of cold-start risk for the memory the container would
/// have held during the gap the pattern says never sees an arrival.
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
    /// the hybrid policy observes gaps).
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

/// The idle gaps one function observed under the hybrid policy.
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
        /// The left edge of the bin covering the head percentile, capped at
        /// `window` (zero without prewarming).
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

    /// Observes one idle gap under the hybrid geometry `(range, bin)` and,
    /// once dense, keeps the learned windows for prewarm head `head`
    /// current: the cursors step to their new bins, and the windows are
    /// recomputed only when a cursor's bin changes.
    ///
    /// # Panics
    /// Panics past `u32::MAX` in-bounds gaps, a trace of over four billion
    /// invocations of one function on one rack.
    fn observe(&mut self, idle: SimDuration, range: SimDuration, bin: SimDuration, head: f64) {
        let n_bins = range.as_nanos().div_ceil(bin.as_nanos()) as usize;
        let idx = (idle.as_nanos() / bin.as_nanos()) as usize;
        if idx >= n_bins {
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
                let mut words = vec![0; CURSOR_WORDS + n_bins].into_boxed_slice();
                let (header, bins) = words.split_at_mut(CURSOR_WORDS);
                for &early_idx in early.iter() {
                    bins[early_idx as usize] += 1;
                }
                bins[idx] += 1;
                let mut cursors = Cursors::at_start(bins);
                cursors.seek(bins, total, head);
                cursors.store(header);
                let (window, prewarm) = cursors.windows(range, bin, head);
                self.bins = GapBins::Dense {
                    words,
                    window,
                    prewarm,
                };
            }
            GapBins::Dense {
                words,
                window,
                prewarm,
            } => {
                let (header, bins) = words.split_at_mut(CURSOR_WORDS);
                bins[idx] += 1;
                let before = Cursors::load(header);
                let mut cursors = before;
                cursors.count(index, head);
                cursors.seek(bins, total, head);
                if cursors.bins() != before.bins() {
                    (*window, *prewarm) = cursors.windows(range, bin, head);
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
/// mass (the eviction window) and the head cursor at the prewarm head,
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
    /// falls under.
    fn count(&mut self, idx: u32, head: f64) {
        self.tail.seen += u32::from(idx <= self.tail.bin);
        if head > 0.0 {
            self.head.seen += u32::from(idx <= self.head.bin);
        }
    }

    /// Moves each cursor to its bin for `total` in-bounds gaps.
    fn seek(&mut self, bins: &[u32], total: u32, head: f64) {
        self.tail.seek(bins, HYBRID_TAIL * f64::from(total));
        if head > 0.0 {
            self.head.seek(bins, head * f64::from(total));
        }
    }

    /// The learned eviction and prewarm windows at the cursors' bins.
    fn windows(
        self,
        range: SimDuration,
        bin: SimDuration,
        head: f64,
    ) -> (SimDuration, SimDuration) {
        let learned = bin * (u64::from(self.tail.bin) + 1);
        let window = (learned * HYBRID_MARGIN).min(range);
        let prewarm = if head > 0.0 {
            (bin * u64::from(self.head.bin)).min(window)
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
    /// learned-pattern function (under a non-zero head percentile) whose
    /// idle gap landed inside the prewarm-to-eviction band. When the
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

/// Minimum idle-gap observations before the hybrid histogram trusts its
/// learned tail over the conservative full range.
const HYBRID_MIN_SAMPLES: u64 = 10;
/// Fraction of observations the learned window must cover (the study's 99th
/// percentile). Public because it is also the exclusive upper bound on the
/// hybrid histogram's prewarm head percentile ([`KeepalivePolicy::check`]).
pub const HYBRID_TAIL: f64 = 0.99;
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
    ///
    /// # Panics
    /// Panics if a hybrid-histogram policy has a zero bin width, a range
    /// smaller than one bin (the histogram would be degenerate), or a head
    /// percentile outside `[0, 1)`.
    pub fn new(policy: KeepalivePolicy) -> Self {
        if let KeepalivePolicy::HybridHistogram { range, bin, head } = policy {
            assert!(
                !bin.is_zero(),
                "hybrid-histogram bin width must be non-zero"
            );
            assert!(range >= bin, "hybrid-histogram range must cover one bin");
            assert!(
                (0.0..1.0).contains(&head),
                "hybrid-histogram head percentile must be in [0, 1)"
            );
        }
        KeepaliveState {
            policy,
            slots: Vec::new(),
            gaps: Vec::new(),
            arrivals: Vec::new(),
            stats: KeepaliveStats::default(),
        }
    }

    /// The policy this state enforces.
    pub fn policy(&self) -> KeepalivePolicy {
        self.policy
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
            KeepalivePolicy::FixedWindow(w) => (w, SimDuration::ZERO),
            // Pattern unknown or too spread: stay conservative so a warm
            // container is never evicted early.
            KeepalivePolicy::HybridHistogram { range, .. } => {
                self.learned(slot).unwrap_or((range, SimDuration::ZERO))
            }
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
    /// on — unless the policy has a non-zero head percentile and the
    /// function's pattern is learned.
    ///
    /// The window is the left edge of the bin covering the head percentile of
    /// observed idle gaps (the study's 5th-percentile prewarm point): at most
    /// `head` of the observed mass lies below it, which is exactly the
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
            if let KeepalivePolicy::HybridHistogram { range, bin, head } = self.policy {
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
                record.observe(idle, range, bin, head);
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
        matches!(self.policy, KeepalivePolicy::HybridHistogram { head, .. } if head > 0.0)
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
        fn observe(&mut self, idle: SimDuration, bin: SimDuration, range: SimDuration) {
            let n_bins = (range.as_nanos().div_ceil(bin.as_nanos())) as usize;
            if self.bins.is_empty() {
                self.bins = vec![0; n_bins.max(1)];
            }
            let idx = (idle.as_nanos() / bin.as_nanos()) as usize;
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
                KeepalivePolicy::FixedWindow(w) => w,
                KeepalivePolicy::HybridHistogram { range, bin, .. } => {
                    if !self.learned(function) {
                        return range;
                    }
                    let hist = &self.histograms[function as usize];
                    let learned = bin * (hist.tail_bin(HYBRID_TAIL) as u64 + 1);
                    (learned * HYBRID_MARGIN).min(range)
                }
            }
        }

        fn prewarm_window(&self, function: u32) -> SimDuration {
            let KeepalivePolicy::HybridHistogram { bin, head, .. } = self.policy else {
                return SimDuration::ZERO;
            };
            if head <= 0.0 || !self.learned(function) {
                return SimDuration::ZERO;
            }
            let edge = self.histograms[function as usize].tail_bin(head);
            (bin * edge as u64).min(self.window(function))
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
                let prewarm_enabled = matches!(
                    self.policy,
                    KeepalivePolicy::HybridHistogram { head, .. } if head > 0.0
                );
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
                if let KeepalivePolicy::HybridHistogram { range, bin, .. } = self.policy {
                    grow_to(&mut self.histograms, function).observe(idle, bin, range);
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
        for case in 0..CASES {
            let mut rng =
                DeterministicRng::seeded(0x4B41 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let bin = SimDuration::from_secs(1 + rng.next_index(20) as u64);
            let range = bin * (1 + rng.next_index(60) as u64);
            let policies = [
                KeepalivePolicy::NoKeepalive,
                KeepalivePolicy::FixedWindow(range),
                KeepalivePolicy::HybridHistogram {
                    range,
                    bin,
                    head: 0.0,
                },
                KeepalivePolicy::HybridHistogram {
                    range,
                    bin,
                    head: 0.05,
                },
            ];
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

            for policy in policies {
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

                if matches!(policy, KeepalivePolicy::HybridHistogram { .. }) {
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
        let policy = KeepalivePolicy::prewarm_default();
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

    #[test]
    fn fcfs_pops_in_submission_order() {
        let mut q = SchedQueue::new(SchedulerPolicy::Fcfs);
        for i in 0..5 {
            q.push(
                i,
                Benchmark::ALL[i % 8],
                SimDuration::from_millis(5 - i as u64),
            );
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sjf_pops_cheapest_first_with_fifo_ties() {
        let mut q = SchedQueue::new(SchedulerPolicy::ShortestJobFirst);
        q.push(0, Benchmark::ALL[0], SimDuration::from_millis(30));
        q.push(1, Benchmark::ALL[1], SimDuration::from_millis(10));
        q.push(2, Benchmark::ALL[2], SimDuration::from_millis(10));
        q.push(3, Benchmark::ALL[3], SimDuration::from_millis(20));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn fair_round_robins_across_benchmarks() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark);
        // Three requests of benchmark 0, one of benchmark 1.
        q.push(10, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(11, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(12, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(20, Benchmark::ALL[1], SimDuration::from_millis(1));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        // The lone benchmark-1 request is served second, not last.
        assert_eq!(order, vec![10, 20, 11, 12]);
        assert!(q.is_empty());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(60)));
        s.record_invocation(7, secs(0), secs(10));
        assert!(s.is_warm(7, secs(70)));
        assert!(!s.is_warm(7, secs(71)));
    }

    #[test]
    fn hybrid_starts_conservative_then_learns_the_tail() {
        let policy = KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        };
        let mut s = KeepaliveState::new(policy);
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
        let policy = KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 0.0,
        };
        let mut s = KeepaliveState::new(policy);
        let mut t = 0u64;
        for _ in 0..50 {
            s.record_invocation(1, secs(t), secs(t + 1));
            t += 45; // 44 s idle gaps
        }
        // Window must cover the 44 s gaps (bin 4 -> >= 50 s).
        assert!(s.window(1) >= SimDuration::from_secs(45), "{}", s.window(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bin_hybrid_histogram_is_rejected() {
        let _ = KeepaliveState::new(KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::ZERO,
            head: 0.0,
        });
    }

    #[test]
    #[should_panic(expected = "head percentile")]
    fn out_of_range_prewarm_head_is_rejected() {
        let _ = KeepaliveState::new(KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head: 1.0,
        });
    }

    #[test]
    fn concurrent_instances_keep_the_pool_warm() {
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(5)));
        s.record_invocation(0, secs(0), secs(100));
        s.record_invocation(0, secs(1), secs(2)); // shorter, finishes earlier
        assert!(s.is_warm(0, secs(50)), "long-running instance keeps warm");
    }

    /// Satellite regression test: `len`/`is_empty` stay consistent with the
    /// fair round-robin subqueues across interleaved pushes, pops and full
    /// drains — including pops on an already-empty queue, which previously
    /// relied on a separately maintained counter.
    #[test]
    fn fair_queue_len_stays_consistent_through_drains() {
        let mut q = SchedQueue::new(SchedulerPolicy::FairPerBenchmark);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "pop on empty returns None");
        assert_eq!(q.len(), 0, "pop on empty must not desync len");

        // Uneven load: three requests on benchmark 0, one on benchmark 3.
        q.push(0, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(1, Benchmark::ALL[0], SimDuration::from_millis(1));
        q.push(2, Benchmark::ALL[3], SimDuration::from_millis(1));
        q.push(3, Benchmark::ALL[0], SimDuration::from_millis(1));
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
        q.push(9, Benchmark::ALL[5], SimDuration::from_millis(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(9));
        assert!(q.is_empty());
    }

    #[test]
    fn scaling_policy_names_and_defaults() {
        assert_eq!(ScalingPolicy::Fixed.name(), "fixed");
        assert_eq!(ScalingPolicy::reactive_default().name(), "reactive");
        assert_eq!(ScalingPolicy::predictive_default().name(), "predictive");
        assert_eq!(ScalingPolicy::Fixed.interval(), None);
        for policy in ScalingPolicy::all_default() {
            assert_eq!(policy.check(), Ok(()));
        }
        assert!(ScalingPolicy::reactive_default().interval().is_some());
    }

    #[test]
    fn zero_interval_reactive_scaling_is_rejected() {
        let err = ScalingPolicy::Reactive {
            scale_up_queue: 1,
            scale_down_queue: 0,
            step: 1,
            interval: SimDuration::ZERO,
        }
        .check()
        .expect_err("zero interval");
        assert_eq!(err, ConfigError::ZeroScalingInterval { policy: "reactive" });
    }

    #[test]
    fn overlapping_reactive_thresholds_are_rejected() {
        let err = ScalingPolicy::Reactive {
            scale_up_queue: 4,
            scale_down_queue: 8,
            step: 1,
            interval: SimDuration::from_secs(5),
        }
        .check()
        .expect_err("overlap");
        assert_eq!(
            err,
            ConfigError::OverlappingReactiveThresholds {
                scale_up_queue: 4,
                scale_down_queue: 8
            }
        );
    }

    #[test]
    fn sub_unit_predictive_headroom_is_rejected() {
        let err = ScalingPolicy::Predictive {
            interval: SimDuration::from_secs(5),
            headroom: 0.5,
        }
        .check()
        .expect_err("sub-unit headroom");
        assert_eq!(
            err,
            ConfigError::InvalidPredictiveHeadroom { headroom: 0.5 }
        );
    }

    #[test]
    fn keepalive_check_rejects_a_head_at_or_above_the_tail() {
        let policy = |head| KeepalivePolicy::HybridHistogram {
            range: SimDuration::from_secs(600),
            bin: SimDuration::from_secs(10),
            head,
        };
        assert_eq!(policy(0.0).check(), Ok(()));
        assert_eq!(policy(0.05).check(), Ok(()));
        assert_eq!(policy(HYBRID_TAIL - 1e-9).check(), Ok(()));
        for head in [HYBRID_TAIL, 0.995] {
            assert_eq!(
                policy(head).check(),
                Err(ConfigError::PrewarmHeadAboveTail {
                    head,
                    tail: HYBRID_TAIL,
                }),
                "head {head} must be rejected"
            );
        }
        // The non-hybrid policies have nothing to misconfigure.
        assert_eq!(KeepalivePolicy::NoKeepalive.check(), Ok(()));
        assert_eq!(KeepalivePolicy::paper_default().check(), Ok(()));
    }

    /// Every hybrid geometry `KeepaliveState::new` asserts on is a typed
    /// error from `check`, and the constructor's assertion fires on it.
    #[test]
    fn keepalive_check_types_every_constructor_assertion() {
        let hybrid = |range, bin, head| KeepalivePolicy::HybridHistogram { range, bin, head };
        let s = SimDuration::from_secs;
        let cases = [
            (
                hybrid(s(600), SimDuration::ZERO, 0.0),
                ConfigError::ZeroHistogramBin,
                "hybrid-histogram bin width must be non-zero",
            ),
            (
                hybrid(s(5), s(10), 0.0),
                ConfigError::HistogramRangeBelowBin {
                    range: s(5),
                    bin: s(10),
                },
                "hybrid-histogram range must cover one bin",
            ),
            (
                hybrid(s(600), s(10), -0.1),
                ConfigError::PrewarmHeadOutOfRange { head: -0.1 },
                "hybrid-histogram head percentile must be in [0, 1)",
            ),
        ];
        for (policy, expected, assertion) in cases {
            assert_eq!(policy.check(), Err(expected.clone()));
            let payload = std::panic::catch_unwind(|| KeepaliveState::new(policy))
                .expect_err("the constructor asserts on the same geometry");
            let message = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("a string panic payload");
            assert_eq!(message, assertion);
        }
        // A NaN head is out of range too: it compares false with the tail.
        assert!(matches!(
            hybrid(s(600), s(10), f64::NAN).check(),
            Err(ConfigError::PrewarmHeadOutOfRange { head }) if head.is_nan()
        ));
        // One bin exactly covering the range is a valid geometry.
        assert_eq!(hybrid(s(10), s(10), 0.0).check(), Ok(()));
    }

    #[test]
    fn prewarm_window_is_zero_until_the_pattern_is_learned() {
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::prewarm_default());
        let mut t = 0u64;
        for _ in 0..40 {
            s.record_invocation(3, secs(t), secs(t + 1));
            t += 46;
        }
        let stats = s.stats();
        assert!(stats.prewarm_hits > 0, "learned arrivals count as hits");
        assert!(stats.warm_seconds > 0.0);
        // Without prewarming the same history holds strictly more memory.
        let mut baseline = KeepaliveState::new(KeepalivePolicy::hybrid_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::FixedWindow(SimDuration::from_secs(60)));
        s.record_invocation(0, secs(0), secs(10));
        s.finish_accounting(secs(1000));
        let stats = s.stats();
        assert!((stats.warm_seconds - 60.0).abs() < 1e-9, "{stats:?}");
        assert!((stats.wasted_warm_seconds - 60.0).abs() < 1e-9, "{stats:?}");

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
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
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
        let mut s = KeepaliveState::new(KeepalivePolicy::paper_default());
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
