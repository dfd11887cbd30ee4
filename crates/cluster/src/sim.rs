//! At-scale cluster simulation (Figure 13 and beyond).
//!
//! A discrete-event simulation of one or more racks serving a request trace.
//! Each rack runs an instance pool governed by a [`ScalingPolicy`]: the
//! paper's fixed 200-instance cap, or elastic reactive/predictive autoscaling
//! between `min_instances` and `max_instances` with a modelled provisioning
//! delay on every scale-up. Arrivals beyond a bounded scheduler queue are
//! rejected; a front-end load balancer shards arrivals across racks. Runs
//! are specified through [`crate::experiment::ExperimentBuilder`]; with a
//! [`DataLayer`] attached, dispatch is data-aware: the locality balancer
//! routes requests toward the racks holding their object's replicas, and any
//! request started without a local replica is charged the modelled
//! cross-rack fetch (latency and joules).
//! Per-request service times come from the end-to-end model for the platform
//! under test, and cold starts — priced by
//! [`dscs_faas::coldstart::cold_start_latency`] and governed by the configured
//! [`KeepalivePolicy`] (including its prewarm window) — are charged onto the
//! request that finds its function's container cold. DSCS-Serverless
//! platforms cache evicted images on the drive's flash, so their repeat cold
//! starts pull over the P2P path instead of the remote registry.
//!
//! The outputs are the series Figure 13 plots (offered load, queued functions
//! over time, wall-clock request latency over time) plus cold-start counts,
//! autoscaling metrics (scaling lag, peak instances), prewarming metrics
//! (hits, wasted warm-seconds) and per-rack summaries for the at-scale policy
//! sweeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use dscs_core::benchmarks::Benchmark;
use dscs_core::endtoend::{EvalOptions, SystemModel};
use dscs_faas::coldstart::{cold_start_latency, ImageSource};
use dscs_platforms::spec::{PlatformKind, PlatformLocation};
use dscs_simcore::par;
use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::series::TimeSeries;
use dscs_simcore::stats::{Measured, QuantileSketch};
use dscs_simcore::time::{SimDuration, SimTime};

use crate::coldpath::{ColdStartPath, IpcTransport};
use crate::data::DataLayer;
use crate::experiment::ConfigError;
use crate::policy::{
    KeepalivePolicy, KeepaliveState, KeepaliveStats, LoadBalancer, ScalingPolicy, SchedQueue,
    SchedulerPolicy,
};
use crate::trace::{assert_function_in_range, TraceRequest};

/// Per-request service-time jitter: the sigma of a multiplicative
/// lognormal.
const SERVICE_JITTER_SIGMA: f64 = 0.15;

/// Jitter draws in one memoised chunk of a rack's stream ([`RackStreams`]).
const JITTER_CHUNK: usize = 1024;

/// Bytes of jitter draws one [`RackStreams`] memoises over all its racks:
/// 32,768 draws, so 16 chunks per rack at 2 racks, 8 at 4 and none above
/// 32 racks.
const JITTER_MEMO_BYTES: usize = 256 * 1024;

/// Bucket width of the reported time series.
const BUCKET: SimDuration = SimDuration::from_secs(60);

/// Modelled delay between a scale-up decision and the new instances coming
/// online (scale-downs release immediately).
const PROVISIONING_DELAY: SimDuration = SimDuration::from_secs(2);

/// How often an elastic rack takes a scaling decision: the elastic
/// policies' reaction lag.
const SCALING_INTERVAL: SimDuration = SimDuration::from_secs(5);
// A rack requests scale-ups only at its ticks, so a commit landing before
// the rack's next tick keeps at most one scale-up in flight per rack.
const _: () = assert!(PROVISIONING_DELAY.as_nanos() < SCALING_INTERVAL.as_nanos());
/// Queue depth at or above which a reactive rack requests more instances.
const SCALE_UP_QUEUE: usize = 32;
/// Queue depth at or below which a reactive rack releases instances.
const SCALE_DOWN_QUEUE: usize = 2;
/// Instances a reactive decision adds or removes.
const SCALE_STEP: u32 = 32;
// A queue depth that met both thresholds would make scale-down unreachable.
const _: () = assert!(SCALE_DOWN_QUEUE < SCALE_UP_QUEUE);
/// Predictive capacity multiplier on the predicted demand (above 1, so the
/// pool keeps slack).
const PREDICTIVE_HEADROOM: f64 = 1.25;

/// Queue depth at a replica rack above which the locality balancer spills
/// the request to the least-loaded rack.
const SPILL_THRESHOLD: usize = 64;

/// Per-rack cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Maximum concurrent function instances per rack (the paper caps both
    /// systems at 200). A [`ScalingPolicy::Fixed`] rack always runs this
    /// many; elastic racks never exceed it.
    pub max_instances: u32,
    /// Minimum instances an elastic rack keeps provisioned (and the pool an
    /// autoscaled rack starts from). Ignored under [`ScalingPolicy::Fixed`].
    pub min_instances: u32,
    /// Scheduler queue depth per rack (requests beyond this are rejected).
    pub queue_depth: usize,
    /// Queue discipline used when an instance frees up.
    pub scheduler: SchedulerPolicy,
    /// Container keepalive policy deciding when invocations run cold.
    pub keepalive: KeepalivePolicy,
    /// How the rack's instance pool grows and shrinks. Scale-ups come online
    /// after a fixed 2 s provisioning delay.
    pub scaling: ScalingPolicy,
    /// Which modality cold starts pay (see [`ColdStartPath`]). The default,
    /// [`ColdStartPath::FlashReload`], reproduces the historical DSCS
    /// behaviour byte for byte.
    pub cold_path: ColdStartPath,
    /// Per-request IPC transport between the gateway and the function
    /// runtime, charged on every started invocation. The default,
    /// [`IpcTransport::SharedMem`], costs exactly zero.
    pub ipc: IpcTransport,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            max_instances: 200,
            min_instances: 8,
            queue_depth: 10_000,
            scheduler: SchedulerPolicy::Fcfs,
            keepalive: KeepalivePolicy::FixedWindow,
            scaling: ScalingPolicy::Fixed,
            cold_path: ColdStartPath::default(),
            ipc: IpcTransport::default(),
        }
    }
}

impl ClusterConfig {
    /// Checks the instance bounds, returning the first violation found:
    /// `max_instances` of zero under any scaling policy, or — for elastic
    /// policies — `min_instances` of zero or above `max_instances` (in each
    /// case the rack could never start work).
    /// [`crate::experiment::ExperimentBuilder::build`] runs it on every
    /// experiment.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.max_instances == 0 {
            return Err(ConfigError::ZeroMaxInstances);
        }
        if !matches!(self.scaling, ScalingPolicy::Fixed) {
            if self.min_instances == 0 {
                return Err(ConfigError::ZeroMinInstances);
            }
            if self.min_instances > self.max_instances {
                return Err(ConfigError::MinAboveMax {
                    min: self.min_instances,
                    max: self.max_instances,
                });
            }
        }
        Ok(())
    }
}

/// Result of one cluster simulation (aggregated over all racks).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The platform simulated.
    pub platform: PlatformKind,
    /// Offered load per bucket (requests per second) — Figure 13a.
    pub offered_rps: Vec<f64>,
    /// Mean per-rack queue depth per bucket — Figure 13b. Each
    /// capacity-affecting event samples its own rack's queue depth, and the
    /// per-rack series merge bucket-wise, so the value reads as "how deep was
    /// a rack's queue when something happened on it" under every balancer
    /// and both engines.
    pub queued: Vec<f64>,
    /// Mean wall-clock latency per bucket in milliseconds — Figures 13c/13d.
    pub latency_ms: Vec<f64>,
    /// Number of completed requests.
    pub completed: u64,
    /// Number of rejected requests (queue overflow).
    pub rejected: u64,
    /// Number of requests that paid a cold start.
    pub cold_starts: u64,
    /// Total cold-start seconds charged onto invocations: the sum of every
    /// cold-start penalty, which latency also includes. This is the quantity
    /// the offline-optimal bound in [`crate::optimal`] lower bounds, so
    /// `coldstart_s - bound` is the policy's regret.
    pub coldstart_s: f64,
    /// The subset of [`ClusterReport::coldstart_s`] paid as snapshot
    /// restores (zero unless the run's [`ColdStartPath`] is
    /// [`ColdStartPath::SnapshotRestore`] and a repeat cold start hit).
    pub restore_s: f64,
    /// Per-request IPC transport latency charged across all started
    /// invocations, in seconds (zero under the default
    /// [`IpcTransport::SharedMem`]).
    pub ipc_overhead_s: f64,
    /// Invocations that found a proactively prewarmed instance (under
    /// [`KeepalivePolicy::HybridPrewarm`]).
    pub prewarm_hits: u64,
    /// Container-idle seconds the keepalive policy held memory warm, summed
    /// over racks.
    pub warm_seconds: f64,
    /// The share of [`ClusterReport::warm_seconds`] held to eviction (or the
    /// end of the run) without a reuse.
    pub wasted_warm_seconds: f64,
    /// Scale-up decisions taken across all racks.
    pub scale_ups: u64,
    /// Scale-down decisions taken across all racks.
    pub scale_downs: u64,
    /// Total seconds racks spent waiting on instance provisioning (the sum
    /// of decision-to-commit delays over all scale-ups).
    pub scaling_lag_s: f64,
    /// Largest provisioned instance count any rack reached.
    pub peak_instances: u32,
    /// Requests that started on a rack holding a replica of their object
    /// (zero when the run has no [`DataLayer`] attached).
    pub locality_hits: u64,
    /// Requests that started on a rack *without* a replica and paid the
    /// modelled cross-rack fetch.
    pub remote_fetches: u64,
    /// Bytes moved across racks by those remote fetches.
    pub cross_rack_bytes: u64,
    /// Total fetch latency charged onto invocations, in seconds.
    pub fetch_latency_s: f64,
    /// Energy attributable to the bytes those fetches moved across racks
    /// (fabric NICs/switches plus the drive-side PCIe hop), in joules —
    /// [`dscs_storage::object_store::RemoteFetchModel::fetch_energy_joules`]
    /// summed over every remote fetch. Zero without a data layer.
    pub fetch_energy_j: f64,
    /// Streaming sketch of all wall-clock latencies (seconds), merged from
    /// the per-rack sketches in rack order. Constant ~16 KiB regardless of
    /// trace length; quantiles carry the sketch's 1% relative-error bound
    /// ([`dscs_simcore::stats::SKETCH_RELATIVE_ACCURACY`]), count/mean/min/
    /// max are exact.
    pub latency_summary: Option<QuantileSketch>,
    /// Total simulated time to drain the trace (wall-clock makespan).
    pub makespan: SimDuration,
    /// Discrete events the simulator processed — a deterministic measure of
    /// engine work for this run (arrivals, completions, scale ticks and
    /// commits).
    pub events: u64,
    /// Host wall-clock seconds the simulation took. A measurement, not a
    /// modelled result: excluded from report equality (see [`Measured`]).
    pub wall_s: Measured,
}

impl ClusterReport {
    /// Mean wall-clock latency over the whole run, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_summary
            .as_ref()
            .map_or(0.0, |s| s.mean() * 1e3)
    }

    /// The p99 wall-clock latency over the whole run, in milliseconds.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency_summary.as_ref().map_or(0.0, |s| s.p99() * 1e3)
    }

    /// Peak queue depth observed (per-bucket mean maximum).
    pub fn peak_queue(&self) -> f64 {
        self.queued.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of completed requests that found a prewarmed instance.
    pub fn prewarm_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.prewarm_hits as f64 / self.completed as f64
        }
    }

    /// Fraction of started requests that ran on a rack holding a replica of
    /// their object. Zero when the run tracked no data placement.
    pub fn locality_hit_rate(&self) -> f64 {
        let tracked = self.locality_hits + self.remote_fetches;
        if tracked == 0 {
            0.0
        } else {
            self.locality_hits as f64 / tracked as f64
        }
    }
}

/// Per-rack ledger of a run: the engine writes each rack's counters here as
/// it runs, and every [`ClusterReport`] counter is the rack-order sum (or,
/// for `peak_instances`, the maximum) of these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RackSummary {
    /// Rack index.
    pub rack: u32,
    /// Requests completed on this rack.
    pub completed: u64,
    /// Requests rejected by this rack's queue.
    pub rejected: u64,
    /// Cold starts paid on this rack.
    pub cold_starts: u64,
    /// Cold-start time charged on this rack.
    pub coldstart: SimDuration,
    /// The subset of `coldstart` this rack paid as snapshot restores.
    pub restore: SimDuration,
    /// Per-request IPC transport time this rack charged.
    pub ipc_overhead: SimDuration,
    /// This rack's prewarm hits and warm-memory seconds, closed against the
    /// cluster's last activity.
    pub keepalive: KeepaliveStats,
    /// Maximum queue depth this rack reached.
    pub peak_queue: usize,
    /// Largest provisioned instance count this rack reached.
    pub peak_instances: u32,
    /// Smallest provisioned instance count this rack reached.
    pub low_instances: u32,
    /// Scale-up decisions this rack took.
    pub scale_ups: u64,
    /// Scale-down decisions this rack took.
    pub scale_downs: u64,
    /// Time this rack waited on instance provisioning over its scale-ups.
    pub scaling_lag: SimDuration,
    /// Requests this rack served with a local replica of their object.
    pub locality_hits: u64,
    /// Requests this rack served by fetching the object from a remote rack.
    pub remote_fetches: u64,
    /// Bytes this rack pulled across the fabric for those fetches.
    pub cross_rack_bytes: u64,
    /// Fetch latency this rack charged onto those invocations.
    pub fetch_latency: SimDuration,
    /// Joules this rack's remote fetches spent moving those bytes.
    pub fetch_energy_j: f64,
    /// Mean wall-clock latency of requests completed on this rack, in
    /// milliseconds (zero if the rack completed nothing). Exact.
    pub mean_latency_ms: f64,
    /// p99 wall-clock latency of requests completed on this rack, in
    /// milliseconds (zero if the rack completed nothing), from the rack's
    /// own latency sketch. Cluster-level tails come from *merging* the rack
    /// sketches — never from averaging these per-rack p99s, which
    /// understates the tail whenever racks are skewed.
    pub p99_latency_ms: f64,
}

/// Which discrete-event engine executed a run.
///
/// Under [`LoadBalancer::RoundRobin`] every arrival's rack is a pure function
/// of its trace index and all simulation state (queues, keepalive ledgers,
/// autoscaling, RNG streams) is per-rack, so the trace is pre-partitioned and
/// each rack simulated as an independent lane — optionally across threads —
/// then merged deterministically in rack order. Coupled balancers
/// ([`LoadBalancer::LeastLoaded`], [`LoadBalancer::LocalityAware`]) read
/// every rack's load at dispatch time, so they keep the whole-cluster
/// sequential event loop; the selection is explicit and reported here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSelection {
    /// Per-rack lanes merged in rack order. Lane results are identical
    /// regardless of `workers` — threads only change *who* simulates a lane.
    RackParallel {
        /// Worker threads that executed the lanes (capped at the rack count;
        /// 1 means the caller's thread ran every lane inline).
        workers: usize,
    },
    /// The whole-cluster sequential event loop.
    Sequential {
        /// Why the run could not be partitioned into independent rack lanes.
        reason: &'static str,
    },
}

impl EngineSelection {
    /// Whether the run used the partitioned per-rack engine.
    pub fn is_rack_parallel(&self) -> bool {
        matches!(self, EngineSelection::RackParallel { .. })
    }
}

/// Heap events of the event loop, each naming its rack by position in the
/// loop's own rack slice. Arrivals are not heap events: the trace is sorted
/// by arrival, so arrivals stream into the loop from a cursor, and the
/// [`EventHeap`] holds only the O(pending) future events, packed into
/// 16-byte keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeapEvent {
    Completion {
        rack: usize,
    },
    /// Periodic autoscaling evaluation on one rack.
    ScaleTick {
        rack: usize,
    },
    /// The rack's one scale-up in flight comes online: everything
    /// provisioning joins the pool.
    ScaleCommit {
        rack: usize,
    },
}

/// Bits of an event key's low word that hold the rack.
const RACK_BITS: u32 = 22;
/// Bits of an event key's low word that hold the event kind.
const KIND_BITS: u32 = 2;
/// Bits of an event key's low word that hold the scheduling sequence.
const SEQ_BITS: u32 = u64::BITS - KIND_BITS - RACK_BITS;

/// The event loop's pending completions, scale ticks and scale commits, in
/// firing order: by time, then by the order they were scheduled in.
///
/// Each event is one `u128` key in a min-heap: the time's nanoseconds in
/// the high word, then the scheduling sequence (40 bits), the kind (2 bits)
/// and the rack (22 bits). Sequences are unique, so the kind and rack never
/// decide an order; they only ride along. A scale commit needs no size: a
/// rack has at most one scale-up in flight (the provisioning delay is
/// shorter than the scaling interval), and its commit takes all of the
/// rack's `pending`.
#[derive(Debug, Default)]
struct EventHeap {
    keys: BinaryHeap<Reverse<u128>>,
    next_seq: u64,
}

impl EventHeap {
    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    /// Panics, naming the broken invariant, on the 2^40th event a loop
    /// schedules or on a rack index that does not fit the key's 22 bits.
    fn schedule(&mut self, at: SimTime, event: HeapEvent) {
        let seq = self.next_seq;
        assert!(
            seq < 1 << SEQ_BITS,
            "event sequence < 2^40 invariant broken: one loop scheduled 2^40 events"
        );
        self.next_seq += 1;
        let (kind, rack) = match event {
            HeapEvent::Completion { rack } => (0, rack),
            HeapEvent::ScaleTick { rack } => (1, rack),
            HeapEvent::ScaleCommit { rack } => (2, rack),
        };
        assert!(
            rack < ClusterSim::MAX_RACKS as usize,
            "rack < 2^22 invariant broken: rack {rack} does not fit an event key"
        );
        let low = seq << (KIND_BITS + RACK_BITS) | kind << RACK_BITS | rack as u64;
        self.keys
            .push(Reverse(u128::from(at.as_nanos()) << 64 | u128::from(low)));
    }

    /// The time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.keys
            .peek()
            .map(|&Reverse(key)| SimTime::from_nanos((key >> 64) as u64))
    }

    /// Removes and returns the earliest pending event with its time.
    fn pop(&mut self) -> Option<(SimTime, HeapEvent)> {
        let Reverse(key) = self.keys.pop()?;
        let at = SimTime::from_nanos((key >> 64) as u64);
        let rack = (key as u64 & ((1 << RACK_BITS) - 1)) as usize;
        let event = match (key as u64 >> RACK_BITS) & ((1 << KIND_BITS) - 1) {
            0 => HeapEvent::Completion { rack },
            1 => HeapEvent::ScaleTick { rack },
            _ => HeapEvent::ScaleCommit { rack },
        };
        Some((at, event))
    }
}

/// Number of benchmarks: the length of the per-benchmark tables, which are
/// indexed by `Benchmark as usize` (discriminant order is `Benchmark::ALL`
/// order, asserted where the enum is defined).
pub(crate) const BENCHMARKS: usize = Benchmark::ALL.len();

/// Precomputed cold-start penalties for one benchmark.
#[derive(Debug, Clone, Copy)]
struct ColdCosts {
    /// Image pulled from the remote registry (first cold start everywhere).
    remote: SimDuration,
    /// Image reloaded from the drive's flash over the P2P path (repeat cold
    /// starts on in-storage platforms).
    local: SimDuration,
    /// Process snapshot restored from local storage (repeat cold starts
    /// under [`ColdStartPath::SnapshotRestore`]).
    snapshot: SimDuration,
}

/// One service-time jitter draw: the lognormal factor `exp(σ·z)` a started
/// request's base service time is scaled by.
fn draw_jitter(rng: &mut DeterministicRng) -> f64 {
    (SERVICE_JITTER_SIGMA * rng.standard_normal()).exp()
}

/// The service-time jitter streams of a run's racks, one per rack, forked
/// from the run's seed in rack order.
///
/// A rack's stream feeds nothing but its started requests' jitter, so every
/// run with the same seed and rack count draws the same per-rack sequences;
/// a sweep gives all its cells one seed and shares one `RackStreams`. Each
/// stream keeps its leading draws in [`JITTER_CHUNK`]-draw chunks, filled on
/// first read by whichever run gets there first, each continuing from the
/// generator state the chunk before it ended in. All racks together keep at
/// most [`JITTER_MEMO_BYTES`] of draws, so the memo does not grow with the
/// trace. Past its chunks a rack's run draws directly, from the last
/// chunk's end state. Every draw is the value the rack's own generator
/// yields at that position, so sharing moves no byte of any report.
pub(crate) struct RackStreams {
    /// The seed the racks' generators were forked from.
    seed: u64,
    racks: Vec<RackStream>,
}

/// One rack's jitter stream.
struct RackStream {
    /// The rack's generator before its first draw.
    origin: DeterministicRng,
    /// The stream's leading draws, chunk by chunk.
    chunks: Box<[OnceLock<JitterChunk>]>,
}

/// [`JITTER_CHUNK`] consecutive draws of one rack's stream.
struct JitterChunk {
    draws: Box<[f64]>,
    /// The generator state after the chunk's last draw.
    end: DeterministicRng,
}

impl RackStreams {
    /// Forks one generator per rack from `seed`, in rack order. No draw is
    /// taken until a run reads it.
    pub(crate) fn new(seed: u64, racks: u32) -> Self {
        let chunk_bytes = JITTER_CHUNK * std::mem::size_of::<f64>();
        let chunks = JITTER_MEMO_BYTES / (chunk_bytes * racks.max(1) as usize);
        let mut master = DeterministicRng::seeded(seed);
        RackStreams {
            seed,
            racks: (0..racks)
                .map(|r| RackStream {
                    origin: master.fork(u64::from(r)),
                    chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
                })
                .collect(),
        }
    }

    /// Whether these are the streams of a run seeded with `seed` over
    /// `racks` racks.
    pub(crate) fn serve(&self, seed: u64, racks: u32) -> bool {
        self.seed == seed && self.racks.len() == racks as usize
    }

    /// A reader of rack `rack`'s stream from its first draw.
    fn cursor(&self, rack: usize) -> JitterCursor<'_> {
        let stream = &self.racks[rack];
        JitterCursor {
            stream,
            unread: &[],
            next_chunk: 0,
            rng: stream.origin.clone(),
        }
    }
}

impl fmt::Debug for RackStreams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RackStreams")
            .field("seed", &self.seed)
            .field("racks", &self.racks.len())
            .finish_non_exhaustive()
    }
}

impl RackStream {
    /// Chunk `k` of the stream, filled on first read, or `None` past the
    /// memo.
    fn chunk(&self, k: usize) -> Option<&JitterChunk> {
        let cell = self.chunks.get(k)?;
        Some(cell.get_or_init(|| {
            let mut rng = match k.checked_sub(1) {
                None => self.origin.clone(),
                Some(previous) => self.chunk(previous).expect("earlier chunk").end.clone(),
            };
            let draws = (0..JITTER_CHUNK).map(|_| draw_jitter(&mut rng)).collect();
            JitterChunk { draws, end: rng }
        }))
    }
}

/// A run's position in one rack's [`RackStreams`] stream.
struct JitterCursor<'s> {
    stream: &'s RackStream,
    /// The draws left in the chunk read last.
    unread: &'s [f64],
    /// The chunk to read once `unread` runs out.
    next_chunk: usize,
    /// Where draws past the memo continue: the rack's generator, or the end
    /// state of the last chunk read.
    rng: DeterministicRng,
}

impl JitterCursor<'_> {
    /// The rack's next jitter draw.
    fn next(&mut self) -> f64 {
        if let Some((&draw, rest)) = self.unread.split_first() {
            self.unread = rest;
            return draw;
        }
        match self.stream.chunk(self.next_chunk) {
            Some(chunk) => {
                self.next_chunk += 1;
                self.rng = chunk.end.clone();
                self.unread = &chunk.draws[1..];
                chunk.draws[0]
            }
            None => draw_jitter(&mut self.rng),
        }
    }
}

struct RackState<'s> {
    /// The rack's ledger; `summary.rack` is what a data layer's home rack
    /// names.
    summary: RackSummary,
    queue: SchedQueue,
    keepalive: KeepaliveState,
    /// The rack's service-time jitter stream.
    jitter: JitterCursor<'s>,
    busy: u32,
    /// Instances currently provisioned and able to run requests.
    capacity: u32,
    /// Instances requested but still provisioning (in the scale-up pipeline).
    pending: u32,
    /// Streaming sketch of this rack's wall-clock latencies (seconds).
    latency: QuantileSketch,
}

impl RackState<'_> {
    fn load(&self) -> usize {
        self.busy as usize + self.queue.len()
    }

    /// A completion frees one busy instance.
    fn release(&mut self) {
        self.busy = self
            .busy
            .checked_sub(1)
            .expect("busy <= capacity invariant broken: a completion found no busy instance");
    }

    /// The rack's one scale-up in flight comes online after
    /// [`PROVISIONING_DELAY`]: everything provisioning joins the pool.
    fn commit_scale_up(&mut self) {
        assert!(
            self.pending > 0,
            "pending > 0 at a commit invariant broken: nothing was provisioning"
        );
        self.capacity += std::mem::take(&mut self.pending);
        self.summary.peak_instances = self.summary.peak_instances.max(self.capacity);
        self.summary.scaling_lag += PROVISIONING_DELAY;
    }

    /// What a drained event loop leaves on every rack: every started request
    /// completed, every scale-up committed, nothing left waiting.
    fn assert_drained(&self) {
        let rack = self.summary.rack;
        assert_eq!(
            self.busy, 0,
            "busy == 0 at drain invariant broken: rack {rack} ended with busy instances"
        );
        assert_eq!(
            self.pending, 0,
            "pending == 0 at drain invariant broken: rack {rack} ended with instances provisioning"
        );
        assert!(
            self.queue.is_empty(),
            "empty queue at drain invariant broken: rack {rack} ended with {} queued request(s)",
            self.queue.len()
        );
    }
}

/// What one run reads per request, by trace position: the trace itself
/// and the data layer, if any.
#[derive(Clone, Copy)]
struct RunInputs<'a> {
    trace: &'a [TraceRequest],
    data: Option<&'a DataLayer>,
}

/// A finished event loop — one round-robin lane or the whole cluster —
/// before summaries and the final report.
struct ClusterRun<'s> {
    rack_states: Vec<RackState<'s>>,
    offered: TimeSeries,
    queued: TimeSeries,
    latency_series: TimeSeries,
    last_activity: SimTime,
    events: u64,
}

/// Deterministically merges round-robin lanes in rack order: series
/// bucket-wise via [`TimeSeries::merge`], the cluster clock as the maximum
/// lane clock, the event counter as the lane sum. Lane order — not execution
/// order — fixes every floating-point accumulation, so the merge is
/// byte-stable across worker counts.
fn merge_lanes(lanes: Vec<ClusterRun<'_>>) -> ClusterRun<'_> {
    let mut lanes = lanes.into_iter();
    let mut run = lanes.next().expect("at least one rack");
    for lane in lanes {
        for (acc, series) in [
            (&mut run.offered, &lane.offered),
            (&mut run.queued, &lane.queued),
            (&mut run.latency_series, &lane.latency_series),
        ] {
            acc.merge(series);
        }
        run.last_activity = run.last_activity.max(lane.last_activity);
        run.events += lane.events;
        run.rack_states.extend(lane.rack_states);
    }
    run
}

/// The cluster simulator.
#[derive(Debug)]
pub struct ClusterSim {
    platform: PlatformKind,
    config: ClusterConfig,
    /// Per-benchmark service times, indexed by `Benchmark as usize`.
    service_times: [SimDuration; BENCHMARKS],
    /// Unweighted mean service time over the benchmark suite, used by
    /// predictive autoscaling to convert arrival rates into instance demand.
    mean_service_s: f64,
    /// Per-benchmark cold-start penalties, indexed by `Benchmark as usize`.
    cold_costs: [ColdCosts; BENCHMARKS],
    /// Whether the platform's drive can cache evicted images on flash (the
    /// DSCS-Serverless P2P reload path).
    flash_cache: bool,
}

impl ClusterSim {
    /// The most racks a run shards over: the event loop names a rack in 22
    /// bits of each pending event's key.
    pub const MAX_RACKS: u32 = 1 << RACK_BITS;

    /// The latest arrival a run takes: one year (365 days) after the
    /// simulation starts. A run's series span its last arrival plus 120 s in
    /// one-minute buckets, so this caps each at 525,602 buckets, and it leaves
    /// the nanosecond clock over 580 years to drain the queues in, so no
    /// event time wraps.
    pub const MAX_TRACE_SPAN: SimDuration = SimDuration::from_secs(365 * 24 * 3600);

    /// Builds a simulator for `platform`, pre-computing per-benchmark service
    /// times from the end-to-end model (median storage latency; queueing, not
    /// the storage tail, dominates at scale) and cold-start penalties from the
    /// container-lifecycle model.
    pub fn new(platform: PlatformKind, config: ClusterConfig) -> Self {
        let system = SystemModel::new();
        let options = EvalOptions {
            quantile: 0.50,
            ..EvalOptions::default()
        };
        let service_times =
            Benchmark::ALL.map(|b| system.evaluate(b, platform, options).total_latency());

        let spec = platform.spec();
        let cold_costs = Benchmark::ALL.map(|b| {
            let bench = b.spec();
            let image: Bytes = bench
                .pipeline()
                .functions
                .iter()
                .map(|f| f.image_size)
                .sum();
            let weights = bench.model(1).weight_bytes();
            let weight_load = spec.memory_bandwidth.transfer_time(weights);
            ColdCosts {
                remote: cold_start_latency(image, ImageSource::RemoteRegistry) + weight_load,
                local: cold_start_latency(image, ImageSource::LocalFlash) + weight_load,
                snapshot: cold_start_latency(image, ImageSource::SnapshotRestore) + weight_load,
            }
        });

        let mean_service_s = service_times.iter().map(|t| t.as_secs_f64()).sum::<f64>()
            / Benchmark::ALL.len() as f64;

        ClusterSim {
            platform,
            config,
            service_times,
            mean_service_s,
            cold_costs,
            flash_cache: spec.location == PlatformLocation::InStorage,
        }
    }

    /// A copy of this simulator with a different cluster configuration,
    /// reusing the precomputed service times and cold-start costs (which
    /// depend only on the platform). Policy sweeps use this to avoid
    /// re-evaluating the end-to-end model for every policy cell.
    pub fn reconfigured(&self, config: ClusterConfig) -> ClusterSim {
        ClusterSim {
            platform: self.platform,
            config,
            service_times: self.service_times,
            mean_service_s: self.mean_service_s,
            cold_costs: self.cold_costs,
            flash_cache: self.flash_cache,
        }
    }

    /// The platform this simulator models.
    pub fn platform(&self) -> PlatformKind {
        self.platform
    }

    /// The cold-start penalty a first (registry) cold start of `benchmark`
    /// pays on this platform. Identical under every [`ColdStartPath`]: the
    /// first cold start of a function always pays the full registry spawn —
    /// there is no cached image or snapshot to reuse yet.
    pub fn cold_start_cost(&self, benchmark: Benchmark) -> SimDuration {
        self.cold_costs[benchmark as usize].remote
    }

    /// The cold-start penalty a *repeat* cold start of `benchmark` pays on
    /// this platform, under the configured [`ColdStartPath`]:
    ///
    /// * [`ColdStartPath::FreshSpawn`] — the registry spawn again, always.
    /// * [`ColdStartPath::FlashReload`] — on in-storage platforms the image
    ///   reloads from the drive's flash over the P2P path, everywhere else
    ///   it pulls from the remote registry (the historical behaviour).
    /// * [`ColdStartPath::SnapshotRestore`] — the process snapshot captured
    ///   after the first run restores from local storage.
    ///
    /// [`crate::optimal`] consumes this, so the offline bound automatically
    /// prices gaps against the same modality the simulated policy pays.
    pub fn repeat_cold_start_cost(&self, benchmark: Benchmark) -> SimDuration {
        let costs = self.cold_costs[benchmark as usize];
        match self.config.cold_path {
            ColdStartPath::FreshSpawn => costs.remote,
            ColdStartPath::FlashReload => {
                if self.flash_cache {
                    costs.local
                } else {
                    costs.remote
                }
            }
            ColdStartPath::SnapshotRestore => costs.snapshot,
        }
    }

    /// The discrete-event core behind every run. Callers must have validated
    /// the inputs; [`crate::experiment::Experiment`] instances have by
    /// construction.
    ///
    /// With a [`DataLayer`] attached, dispatch knows where each request's
    /// object lives: the locality-aware balancer prefers replica racks, and
    /// *any* request that starts on a rack without a replica — under any
    /// balancer — is charged the modelled cross-rack fetch latency, with the
    /// moved bytes, fetch time and fetch energy reported.
    ///
    /// Under [`ScalingPolicy::Fixed`] every rack runs `max_instances` for the
    /// whole trace. Elastic racks start at `min_instances` and are
    /// re-evaluated every [`SCALING_INTERVAL`]; scale-ups come online
    /// [`PROVISIONING_DELAY`] later.
    ///
    /// The balancer decides how the event loop runs (see
    /// [`EngineSelection`]): under round-robin each rack is a lane of its own
    /// — `rack_jobs` worker threads (0 = all cores, 1 = inline) run the lanes
    /// — while coupled balancers run one loop over every rack. Lane results
    /// are merged in rack order, so the report is byte-identical across
    /// every `rack_jobs` value.
    ///
    /// The run shards over one rack per stream in `streams`; each rack draws
    /// its service-time jitter from its own stream.
    pub(crate) fn run_validated(
        &self,
        trace: &[TraceRequest],
        streams: &RackStreams,
        balancer: LoadBalancer,
        data: Option<&DataLayer>,
        rack_jobs: usize,
    ) -> (ClusterReport, Vec<RackSummary>, EngineSelection) {
        let horizon =
            trace.last().expect("non-empty").arrival - SimTime::ZERO + SimDuration::from_secs(120);
        let wall_clock = std::time::Instant::now();
        let racks = streams.racks.len();
        let inputs = RunInputs { trace, data };
        let (run, engine) = match balancer {
            LoadBalancer::RoundRobin => {
                // Each rack is a lane of its own: one rack over the stride
                // `r, r + racks, …` of the trace.
                let workers = par::resolve_workers(rack_jobs).min(racks);
                let lanes = par::map_ordered(racks, workers, |r| {
                    let rack = self.new_rack_state(streams, r);
                    self.run_loop(inputs, vec![rack], r, racks, balancer, horizon)
                });
                (
                    merge_lanes(lanes),
                    EngineSelection::RackParallel { workers },
                )
            }
            LoadBalancer::LeastLoaded | LoadBalancer::LocalityAware => {
                let reason = if balancer == LoadBalancer::LeastLoaded {
                    "least-loaded dispatch reads every rack's load"
                } else {
                    "locality spill decisions read every rack's load"
                };
                let racks = (0..racks)
                    .map(|r| self.new_rack_state(streams, r))
                    .collect();
                (
                    self.run_loop(inputs, racks, 0, 1, balancer, horizon),
                    EngineSelection::Sequential { reason },
                )
            }
        };
        let (report, summaries) = self.finalize(run, wall_clock);
        (report, summaries, engine)
    }

    /// The instance pool every rack starts from.
    fn initial_capacity(&self) -> u32 {
        if matches!(self.config.scaling, ScalingPolicy::Fixed) {
            self.config.max_instances
        } else {
            self.config.min_instances
        }
    }

    /// Rack `rack` before the run's first event, reading its jitter from
    /// `streams`.
    fn new_rack_state<'s>(&self, streams: &'s RackStreams, rack: usize) -> RackState<'s> {
        let capacity = self.initial_capacity();
        RackState {
            summary: RackSummary {
                rack: rack as u32,
                peak_instances: capacity,
                low_instances: capacity,
                ..RackSummary::default()
            },
            queue: SchedQueue::new(self.config.scheduler, &self.service_times),
            keepalive: KeepaliveState::new(self.config.keepalive),
            jitter: streams.cursor(rack),
            busy: 0,
            capacity,
            pending: 0,
            latency: QuantileSketch::new(),
        }
    }

    /// The slot in `racks` the arrival at trace position `idx` goes to.
    /// Round-robin runs one lane per rack, whose stride cursor only takes
    /// that rack's arrivals, so they all land in the lane's one slot. The
    /// coupled balancers read every rack's load, so they run over the whole
    /// cluster, where a slot is a rack id.
    fn dispatch(
        &self,
        racks: &[RackState<'_>],
        balancer: LoadBalancer,
        inputs: RunInputs<'_>,
        idx: usize,
    ) -> usize {
        let least_loaded = || {
            racks
                .iter()
                .enumerate()
                .min_by_key(|(i, rack)| (rack.load(), *i))
                .map(|(i, _)| i)
                .expect("at least one rack")
        };
        match balancer {
            LoadBalancer::RoundRobin => 0,
            LoadBalancer::LeastLoaded => least_loaded(),
            LoadBalancer::LocalityAware => {
                // Prefer the least-loaded rack holding a replica of the
                // request's object; once its queue exceeds the spill
                // threshold — or is full, which would reject the request
                // outright — the fetch is cheaper than the wait, so fall
                // back to least-loaded. Without a data layer there is no
                // placement to honour.
                let local = inputs.data.map(|d| d.home_rack(idx) as usize);
                let saturated = SPILL_THRESHOLD.min(self.config.queue_depth.saturating_sub(1));
                match local {
                    Some(r) if racks[r].queue.len() <= saturated => r,
                    _ => least_loaded(),
                }
            }
        }
    }

    /// Admits the arrival at trace position `idx` to `rack`'s scheduler
    /// queue, rejecting it when the queue is full.
    fn admit(&self, rack: &mut RackState<'_>, inputs: RunInputs<'_>, idx: usize, now: SimTime) {
        if self.config.scaling == ScalingPolicy::Predictive {
            // Predictive scaling estimates demand from offered load, not the
            // (capacity-throttled) start rate.
            rack.keepalive.note_arrival(inputs.trace[idx].function, now);
        }
        if rack.queue.len() >= self.config.queue_depth {
            rack.summary.rejected += 1;
        } else {
            rack.queue.push(idx, inputs.trace[idx].benchmark);
            rack.summary.peak_queue = rack.summary.peak_queue.max(rack.queue.len());
        }
    }

    /// Greedily starts queued requests on `rack`'s free instances, in the
    /// order the scheduler policy dictates, charging cold starts and remote
    /// fetches onto each started invocation. `schedule_completion` receives
    /// the service time of every started request.
    fn start_queued(
        &self,
        rack: &mut RackState<'_>,
        now: SimTime,
        inputs: RunInputs<'_>,
        latency_series: &mut TimeSeries,
        mut schedule_completion: impl FnMut(SimDuration),
    ) {
        while rack.busy < rack.capacity {
            let Some(idx) = rack.queue.pop() else { break };
            let request = &inputs.trace[idx];
            let function = request.function;
            let base = self.service_times[request.benchmark as usize];
            let jitter = rack.jitter.next();
            let mut service = base * jitter;
            if !rack.keepalive.is_warm(function, now) {
                // A repeat cold start reuses whatever the first one left
                // behind on this rack, priced as the offline bound prices it.
                // A function's first start on a rack is always cold, so one
                // that ran here before has paid a cold start here.
                let repeat = rack.keepalive.has_run(function);
                let penalty = if repeat {
                    self.repeat_cold_start_cost(request.benchmark)
                } else {
                    self.cold_start_cost(request.benchmark)
                };
                if repeat && self.config.cold_path == ColdStartPath::SnapshotRestore {
                    rack.summary.restore += penalty;
                }
                service += penalty;
                rack.summary.cold_starts += 1;
                rack.summary.coldstart += penalty;
            }
            // Every started invocation — warm and cold — pays the gateway's
            // IPC transport (zero for the default shared-memory path).
            let ipc_cost = self.config.ipc.per_request_cost();
            service += ipc_cost;
            rack.summary.ipc_overhead += ipc_cost;
            if let Some(data) = inputs.data {
                if data.home_rack(idx) == rack.summary.rack {
                    rack.summary.locality_hits += 1;
                } else {
                    // The object lives elsewhere: the invocation carries
                    // the cross-rack fetch before it can execute.
                    let fetch = data.fetch_cost(request.object_size_log2);
                    service += fetch.latency;
                    rack.summary.remote_fetches += 1;
                    rack.summary.cross_rack_bytes += request.object_bytes().as_u64();
                    rack.summary.fetch_latency += fetch.latency;
                    rack.summary.fetch_energy_j += fetch.energy_j;
                }
            }
            rack.keepalive
                .record_invocation(function, now, now + service);
            let wait = now.saturating_since(request.arrival);
            let wall = wait + service;
            rack.latency.record(wall.as_secs_f64());
            latency_series.record(request.arrival, wall.as_millis_f64());
            rack.summary.completed += 1;
            rack.busy += 1;
            schedule_completion(service);
        }
    }

    /// The discrete-event loop over `racks`, fed the arrivals at trace
    /// positions `first, first + stride, …`: a round-robin lane passes its
    /// one rack with `first = r, stride = racks`, coupled balancers pass
    /// every rack with `first = 0, stride = 1`. Arrivals stream from that
    /// cursor against an [`EventHeap`] of packed 16-byte keys holding only
    /// the O(pending) future completions and scaling events, and win ties
    /// against heap events, preserving the historical event order.
    ///
    /// # Panics
    /// Panics, naming the broken invariant, if the cursor takes an arrival
    /// earlier than the one it took before (the trace must be sorted by
    /// arrival) or one whose function slot is not below the trace's length
    /// ([`TraceRequest::function`]), if the drained loop leaves a rack with
    /// busy or provisioning instances or queued requests, or if the racks did
    /// not complete or reject exactly the arrivals the cursor took.
    fn run_loop<'s>(
        &self,
        inputs: RunInputs<'_>,
        mut racks: Vec<RackState<'s>>,
        first: usize,
        stride: usize,
        balancer: LoadBalancer,
        horizon: SimDuration,
    ) -> ClusterRun<'s> {
        let trace = inputs.trace;
        let mut offered = TimeSeries::new(BUCKET, horizon);
        let mut queued = TimeSeries::new(BUCKET, horizon);
        let mut latency_series = TimeSeries::new(BUCKET, horizon);
        let mut heap = EventHeap::default();
        if self.config.scaling != ScalingPolicy::Fixed {
            for rack in 0..racks.len() {
                heap.schedule(
                    SimTime::ZERO + SCALING_INTERVAL,
                    HeapEvent::ScaleTick { rack },
                );
            }
        }
        let mut next_arrival = first;
        let mut arrivals: u64 = 0;
        let mut last_arrival = SimTime::ZERO;
        let mut last_activity = SimTime::ZERO;
        let mut events: u64 = 0;
        loop {
            let take_arrival = match (
                trace.get(next_arrival).map(|request| request.arrival),
                heap.peek_time(),
            ) {
                (Some(arrival), Some(heap_at)) => arrival <= heap_at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            events += 1;
            // Events that can free or add capacity (or enqueue work) run the
            // start loop on their rack afterwards; scale ticks only take
            // decisions.
            let (r, now) = if take_arrival {
                let idx = next_arrival;
                next_arrival += stride;
                arrivals += 1;
                let now = trace[idx].arrival;
                assert!(
                    now >= last_arrival,
                    "arrivals in trace order invariant broken: \
                     trace position {idx} arrives before the arrival taken before it"
                );
                assert_function_in_range(trace, idx);
                last_arrival = now;
                last_activity = now;
                offered.record_event(now);
                let r = self.dispatch(&racks, balancer, inputs, idx);
                self.admit(&mut racks[r], inputs, idx, now);
                (r, now)
            } else {
                let (now, event) = heap.pop().expect("a peeked event pops");
                match event {
                    HeapEvent::Completion { rack } => {
                        racks[rack].release();
                        last_activity = now;
                        (rack, now)
                    }
                    HeapEvent::ScaleTick { rack } => {
                        if self.scale_decision(&mut racks[rack], now) {
                            heap.schedule(
                                now + PROVISIONING_DELAY,
                                HeapEvent::ScaleCommit { rack },
                            );
                        }
                        let r = &racks[rack];
                        if next_arrival < trace.len() || r.busy > 0 || !r.queue.is_empty() {
                            heap.schedule(now + SCALING_INTERVAL, HeapEvent::ScaleTick { rack });
                        }
                        continue;
                    }
                    HeapEvent::ScaleCommit { rack } => {
                        racks[rack].commit_scale_up();
                        (rack, now)
                    }
                }
            };
            self.start_queued(&mut racks[r], now, inputs, &mut latency_series, |service| {
                heap.schedule(now + service, HeapEvent::Completion { rack: r })
            });
            queued.record(now, racks[r].queue.len() as f64);
        }
        for rack in &racks {
            rack.assert_drained();
        }
        let settled: u64 = racks
            .iter()
            .map(|r| r.summary.completed + r.summary.rejected)
            .sum();
        assert_eq!(
            settled, arrivals,
            "arrivals = completed + rejected invariant broken: \
             the racks settled {settled} of the {arrivals} arrivals the cursor took"
        );
        ClusterRun {
            rack_states: racks,
            offered,
            queued,
            latency_series,
            last_activity,
            events,
        }
    }

    /// Closes each rack's ledger and sums the ledgers into the aggregate
    /// report. Closing fills in what only the end of the run knows: the
    /// keepalive stats, with containers still warm at the cluster-wide last
    /// activity charged their remaining window as wasted, and the rack's
    /// latency mean and p99. Every report counter is then a rack-order fold
    /// of the closed ledgers.
    ///
    /// # Panics
    /// Panics, naming the broken invariant, if a closed ledger is not finite
    /// or does not satisfy `0 <= wasted <= warm` seconds.
    fn finalize(
        &self,
        run: ClusterRun<'_>,
        wall_clock: std::time::Instant,
    ) -> (ClusterReport, Vec<RackSummary>) {
        let ClusterRun {
            rack_states,
            offered,
            queued: queued_series,
            latency_series,
            last_activity,
            events,
        } = run;
        // Cluster-level latency: merge the per-rack sketches in rack order.
        // Merging is the correct aggregation — averaging per-rack p99s would
        // understate the cluster tail whenever one rack runs hotter than the
        // rest (the merged p99 tracks the slow rack, the average dilutes it).
        let mut merged_latency = QuantileSketch::new();
        let summaries: Vec<RackSummary> = rack_states
            .into_iter()
            .map(|mut rack| {
                rack.keepalive.finish_accounting(last_activity);
                rack.summary.keepalive = rack.keepalive.stats();
                rack.summary.keepalive.assert_closed();
                if !rack.latency.is_empty() {
                    rack.summary.mean_latency_ms = rack.latency.mean() * 1e3;
                    rack.summary.p99_latency_ms = rack.latency.p99() * 1e3;
                }
                merged_latency.merge(&rack.latency);
                rack.summary
            })
            .collect();
        let report = ClusterReport {
            platform: self.platform,
            offered_rps: offered.rates_per_sec(),
            queued: queued_series.means_filled(),
            latency_ms: latency_series.means_filled(),
            completed: summaries.iter().map(|r| r.completed).sum(),
            rejected: summaries.iter().map(|r| r.rejected).sum(),
            cold_starts: summaries.iter().map(|r| r.cold_starts).sum(),
            coldstart_s: summaries.iter().map(|r| r.coldstart.as_secs_f64()).sum(),
            restore_s: summaries.iter().map(|r| r.restore.as_secs_f64()).sum(),
            ipc_overhead_s: summaries.iter().map(|r| r.ipc_overhead.as_secs_f64()).sum(),
            prewarm_hits: summaries.iter().map(|r| r.keepalive.prewarm_hits).sum(),
            warm_seconds: summaries.iter().map(|r| r.keepalive.warm_seconds).sum(),
            wasted_warm_seconds: summaries
                .iter()
                .map(|r| r.keepalive.wasted_warm_seconds)
                .sum(),
            scale_ups: summaries.iter().map(|r| r.scale_ups).sum(),
            scale_downs: summaries.iter().map(|r| r.scale_downs).sum(),
            scaling_lag_s: summaries.iter().map(|r| r.scaling_lag.as_secs_f64()).sum(),
            peak_instances: summaries
                .iter()
                .map(|r| r.peak_instances)
                .max()
                .unwrap_or(0),
            locality_hits: summaries.iter().map(|r| r.locality_hits).sum(),
            remote_fetches: summaries.iter().map(|r| r.remote_fetches).sum(),
            cross_rack_bytes: summaries.iter().map(|r| r.cross_rack_bytes).sum(),
            fetch_latency_s: summaries
                .iter()
                .map(|r| r.fetch_latency.as_secs_f64())
                .sum(),
            fetch_energy_j: summaries.iter().map(|r| r.fetch_energy_j).sum(),
            latency_summary: if merged_latency.is_empty() {
                None
            } else {
                Some(merged_latency)
            },
            makespan: last_activity - SimTime::ZERO,
            events,
            wall_s: Measured(wall_clock.elapsed().as_secs_f64()),
        };
        (report, summaries)
    }

    /// One autoscaling evaluation on `rack`: reactive policies step the pool
    /// by the queue depth, predictive policies size it to the learned
    /// arrival-rate estimate. Either way the policy names a target pool
    /// within the instance bounds. Growing to it enters the provisioning
    /// pipeline and returns `true`: the caller schedules the commit
    /// [`PROVISIONING_DELAY`] out, before the rack's next tick, so this is
    /// its only scale-up in flight. Shrinking to it releases immediately
    /// (running requests finish, the freed instances just stop accepting
    /// new work).
    fn scale_decision(&self, rack: &mut RackState<'_>, now: SimTime) -> bool {
        let (min, max) = (self.config.min_instances, self.config.max_instances);
        let provisioned = rack.capacity + rack.pending;
        let demand = match self.config.scaling {
            ScalingPolicy::Fixed => unreachable!("fixed racks never tick"),
            ScalingPolicy::Reactive => match rack.queue.len() {
                depth if depth >= SCALE_UP_QUEUE => u64::from(provisioned) + u64::from(SCALE_STEP),
                depth if depth <= SCALE_DOWN_QUEUE => {
                    u64::from(rack.capacity.saturating_sub(SCALE_STEP))
                }
                _ => u64::from(provisioned),
            },
            ScalingPolicy::Predictive => {
                // Steady-state demand from the learned arrival rate, plus a
                // backlog term sized to drain the current queue within one
                // decision interval — cold-start pileups would otherwise sit
                // behind a pool sized only for warm steady state.
                let rate = rack.keepalive.arrival_rate_estimate(now);
                let steady = rate * self.mean_service_s * PREDICTIVE_HEADROOM;
                let backlog =
                    rack.queue.len() as f64 * self.mean_service_s / SCALING_INTERVAL.as_secs_f64();
                // Saturation escape hatch: warm service times underprice a
                // pool stuck in multi-second cold starts, so a fully busy
                // pool with work still queued doubles instead of trusting
                // the model.
                let pressured = if rack.busy >= rack.capacity && !rack.queue.is_empty() {
                    u64::from(provisioned) * 2
                } else {
                    0
                };
                (steady.max(backlog).ceil() as u64).max(pressured)
            }
        };
        let target = demand.clamp(u64::from(min), u64::from(max)) as u32;
        let grow = target > provisioned;
        if grow {
            rack.pending += target - provisioned;
            rack.summary.scale_ups += 1;
        } else if target < rack.capacity {
            rack.capacity = target;
            rack.summary.scale_downs += 1;
            rack.summary.low_instances = rack.summary.low_instances.min(target);
        }
        grow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::trace::RateProfile;
    use dscs_simcore::time::SimDuration;

    fn short_trace(rate: f64, secs: u64, seed: u64) -> Vec<TraceRequest> {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(secs), rate)],
        };
        profile.generate(&mut DeterministicRng::seeded(seed))
    }

    /// One default-configuration single-rack run through the builder API.
    fn run_platform(platform: PlatformKind, trace: &[TraceRequest], seed: u64) -> ClusterReport {
        Experiment::builder(platform)
            .trace(trace.to_vec())
            .seed(seed)
            .build()
            .expect("valid experiment")
            .run()
            .report
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let trace = short_trace(50.0, 20, 1);
        let report = run_platform(PlatformKind::DscsDsa, &trace, 2);
        assert_eq!(report.completed + report.rejected, trace.len() as u64);
        assert_eq!(report.rejected, 0);
        assert!(report.mean_latency_ms() > 0.0);
    }

    /// Regression for the latent aggregation bug class: cluster tails must
    /// come from *merging* per-rack sketches, never from averaging per-rack
    /// p99s. With one fast rack (100 × 1 ms) and one slow rack (100 × 100 ms)
    /// the true cluster p99 tracks the slow rack (~100 ms) while the average
    /// of the two rack p99s dilutes it to ~50 ms — off by 2x.
    #[test]
    fn cluster_p99_comes_from_merged_rack_sketches_not_averaged_p99s() {
        let rack = |latency| {
            let mut sketch = QuantileSketch::new();
            (0..100).for_each(|_| sketch.record(latency));
            sketch
        };
        let (fast, slow) = (rack(0.001), rack(0.1));
        let averaged_p99_ms = (fast.p99() + slow.p99()) / 2.0 * 1e3;
        let mut merged = fast.clone();
        merged.merge(&slow);
        let merged_p99_ms = merged.p99() * 1e3;
        assert!(
            merged_p99_ms > 95.0,
            "merged p99 {merged_p99_ms} ms must track the slow rack"
        );
        assert!(
            averaged_p99_ms < 55.0,
            "averaged p99 {averaged_p99_ms} ms is the wrong answer this test pins out"
        );
        assert!(
            merged_p99_ms > averaged_p99_ms * 1.8,
            "the two aggregations must diverge: merged {merged_p99_ms} vs averaged {averaged_p99_ms}"
        );
    }

    /// The sharded report's latency summary is the merge of the per-rack
    /// sketches: its count equals total completions, the completed-weighted
    /// rack means reproduce the cluster mean exactly, the cluster p99 never
    /// exceeds the worst rack p99 (beyond sketch tolerance), and the
    /// engine-throughput measurements are populated.
    #[test]
    fn sharded_report_merges_rack_sketches_and_measures_throughput() {
        let trace = short_trace(800.0, 30, 7);
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .racks(4)
            .balancer(LoadBalancer::RoundRobin)
            .seed(9)
            .build()
            .expect("valid experiment")
            .run();
        let report = &outcome.report;
        let sketch = report.latency_summary.as_ref().expect("ran");
        assert_eq!(sketch.count(), report.completed);
        let weighted_mean_ms = outcome
            .racks
            .iter()
            .map(|r| r.mean_latency_ms * r.completed as f64)
            .sum::<f64>()
            / report.completed as f64;
        assert!(
            (weighted_mean_ms - report.mean_latency_ms()).abs() < 1e-9,
            "weighted rack means {weighted_mean_ms} vs cluster mean {}",
            report.mean_latency_ms()
        );
        let worst_rack_p99 = outcome
            .racks
            .iter()
            .map(|r| r.p99_latency_ms)
            .fold(0.0, f64::max);
        assert!(worst_rack_p99 > 0.0);
        assert!(
            report.p99_latency_ms() <= worst_rack_p99 * 1.03,
            "cluster p99 {} must not exceed the worst rack p99 {worst_rack_p99}",
            report.p99_latency_ms()
        );
        // Every completed request contributes an arrival and a completion.
        assert!(report.events >= 2 * report.completed);
    }

    #[test]
    fn dscs_sustains_more_load_than_the_baseline() {
        // At a load the DSCS cluster absorbs, the baseline CPU cluster builds a
        // queue and its wall-clock latency climbs (Figure 13c vs 13d).
        let trace = short_trace(1500.0, 60, 3);
        let dscs = run_platform(PlatformKind::DscsDsa, &trace, 4);
        let baseline = run_platform(PlatformKind::BaselineCpu, &trace, 4);
        assert!(baseline.peak_queue() > dscs.peak_queue());
        assert!(baseline.mean_latency_ms() > dscs.mean_latency_ms());
    }

    #[test]
    fn baseline_latency_grows_over_time_under_sustained_overload() {
        let trace = short_trace(2500.0, 120, 5);
        let report = run_platform(PlatformKind::BaselineCpu, &trace, 6);
        let series = &report.latency_ms;
        assert!(series.len() >= 2);
        assert!(
            series.last().expect("non-empty") > series.first().expect("non-empty"),
            "latency should climb: {series:?}"
        );
    }

    #[test]
    fn queue_overflow_rejects_requests() {
        let trace = short_trace(500.0, 20, 7);
        let requests = trace.len() as u64;
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .instances(8, 2)
            .queue_depth(10)
            .seed(8)
            .build()
            .expect("fixed racks ignore min_instances")
            .run();
        assert!(outcome.report.rejected > 0);
        assert_eq!(outcome.report.completed + outcome.report.rejected, requests);
    }

    #[test]
    fn service_times_come_from_the_end_to_end_model() {
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let light = sim.service_times[Benchmark::CreditRiskAssessment as usize];
        let heavy = sim.service_times[Benchmark::ConversationalChatbot as usize];
        assert!(heavy > light);
    }

    #[test]
    fn makespan_extends_past_the_trace_when_overloaded() {
        let trace = short_trace(2500.0, 60, 9);
        let report = run_platform(PlatformKind::BaselineCpu, &trace, 10);
        assert!(report.makespan > SimDuration::from_secs(60));
    }

    #[test]
    fn default_keepalive_pays_one_cold_start_per_function() {
        // With the 10-minute fixed window and a 20-second trace, each of the
        // eight benchmark functions runs cold exactly once.
        let trace = short_trace(50.0, 20, 11);
        let report = run_platform(PlatformKind::DscsDsa, &trace, 12);
        assert_eq!(report.cold_starts, 8, "one cold start per function");
    }

    #[test]
    fn no_keepalive_pays_many_more_cold_starts() {
        // Sparse arrivals so invocations rarely overlap.
        let trace = short_trace(5.0, 30, 13);
        let report = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .keepalive(KeepalivePolicy::NoKeepalive)
            .seed(14)
            .build()
            .expect("valid experiment")
            .run()
            .report;
        let warm = run_platform(PlatformKind::DscsDsa, &trace, 14);
        assert!(
            report.cold_starts > warm.cold_starts * 3,
            "no-keepalive {} vs fixed {}",
            report.cold_starts,
            warm.cold_starts
        );
        assert!(report.mean_latency_ms() > warm.mean_latency_ms());
    }

    #[test]
    fn flash_caching_makes_dscs_repeat_cold_starts_cheaper() {
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let costs = sim.cold_costs[Benchmark::CreditRiskAssessment as usize];
        assert!(costs.local < costs.remote);
        // The baseline CPU never caches on drive flash.
        let cpu = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        assert!(!cpu.flash_cache);
        assert!(sim.flash_cache);
    }

    #[test]
    fn cold_start_costs_are_seconds_scale() {
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        for b in Benchmark::ALL {
            let cost = sim.cold_start_cost(b);
            assert!(
                cost > SimDuration::from_millis(500) && cost < SimDuration::from_secs(120),
                "{b}: {cost}"
            );
        }
    }

    #[test]
    fn sharding_splits_work_and_preserves_totals() {
        let trace = std::sync::Arc::new(short_trace(800.0, 30, 15));
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        for balancer in LoadBalancer::ALL {
            let outcome = Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .racks(4)
                .balancer(balancer)
                .seed(16)
                .build()
                .expect("valid experiment")
                .run_on(&sim);
            assert_eq!(outcome.racks.len(), 4);
            assert_eq!(
                outcome.report.completed + outcome.report.rejected,
                trace.len() as u64
            );
            let per_rack: Vec<u64> = outcome.racks.iter().map(|r| r.completed).collect();
            assert!(
                per_rack.iter().all(|&c| c > 0),
                "{balancer:?}: every rack serves work: {per_rack:?}"
            );
        }
    }

    #[test]
    fn more_racks_absorb_more_load() {
        // A load that overwhelms one baseline rack is absorbed by four.
        let trace = std::sync::Arc::new(short_trace(2500.0, 60, 17));
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        let sharded = |racks| {
            Experiment::builder(PlatformKind::BaselineCpu)
                .trace(trace.clone())
                .racks(racks)
                .seed(18)
                .build()
                .expect("valid experiment")
                .run_on(&sim)
                .report
        };
        let one = sharded(1);
        let four = sharded(4);
        assert!(four.mean_latency_ms() < one.mean_latency_ms() / 2.0);
        assert!(four.peak_queue() < one.peak_queue());
    }

    #[test]
    fn reactive_scaling_grows_under_load_and_stays_bounded() {
        let trace = short_trace(1500.0, 60, 21);
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::Reactive)
            .racks(2)
            .seed(22)
            .build()
            .expect("valid experiment")
            .run();
        let config = ClusterConfig::default();
        let report = &outcome.report;
        assert!(report.scale_ups > 0, "overload must trigger scale-ups");
        assert!(report.scaling_lag_s > 0.0, "scale-ups pay provisioning lag");
        assert!(report.peak_instances > config.min_instances);
        assert!(report.peak_instances <= config.max_instances);
        for rack in &outcome.racks {
            assert!(rack.low_instances >= config.min_instances);
            assert!(rack.peak_instances <= config.max_instances);
        }
    }

    #[test]
    fn reactive_scaling_releases_instances_when_load_fades() {
        // A burst followed by a long quiet tail: the rack must shrink again.
        let profile = RateProfile {
            segments: vec![
                (SimDuration::from_secs(20), 1200.0),
                (SimDuration::from_secs(120), 2.0),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(23));
        let outcome = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::Reactive)
            .seed(24)
            .build()
            .expect("valid experiment")
            .run();
        assert!(outcome.report.scale_ups > 0);
        assert!(
            outcome.report.scale_downs > 0,
            "quiet tail must release instances"
        );
        assert!(outcome.racks[0].low_instances < outcome.racks[0].peak_instances);
    }

    #[test]
    fn predictive_scaling_tracks_offered_load() {
        let trace = short_trace(1200.0, 60, 25);
        let requests = trace.len() as u64;
        let report = Experiment::builder(PlatformKind::BaselineCpu)
            .trace(trace)
            .scaling(ScalingPolicy::Predictive)
            .racks(2)
            .seed(26)
            .build()
            .expect("valid experiment")
            .run()
            .report;
        let config = ClusterConfig::default();
        assert!(report.scale_ups > 0, "sustained load must provision");
        assert!(report.peak_instances > config.min_instances);
        assert!(report.peak_instances <= config.max_instances);
        assert_eq!(report.completed + report.rejected, requests);
    }

    #[test]
    fn fixed_scaling_matches_a_pinned_elastic_pool_bit_for_bit() {
        // An autoscaler whose bounds pin the pool at the fixed cap takes the
        // same decisions as no autoscaler at all: every series, summary and
        // rack outcome must be identical, which also proves the scale-tick
        // machinery perturbs neither the RNG stream nor the event ordering.
        let trace = std::sync::Arc::new(short_trace(700.0, 45, 27));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let experiment = |scaling, min| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .instances(min, 200)
                .racks(2)
                .balancer(LoadBalancer::LeastLoaded)
                .seed(28)
                .build()
                .expect("valid experiment")
                .run_on(&base)
        };
        let fixed = experiment(ScalingPolicy::Fixed, 8);
        let pinned = experiment(ScalingPolicy::Reactive, 200);
        // The pinned pool still runs its scale ticks — extra engine events
        // that never change a decision — so the engine-work counter is the
        // one field allowed to differ.
        let mut pinned_report = pinned.report.clone();
        assert!(pinned_report.events > fixed.report.events);
        pinned_report.events = fixed.report.events;
        assert_eq!(fixed.report, pinned_report);
        assert_eq!(fixed.racks, pinned.racks);
    }

    #[test]
    fn prewarming_reports_hits_and_saves_warm_seconds() {
        let trace = std::sync::Arc::new(short_trace(80.0, 60, 29));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let run = |keepalive| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .keepalive(keepalive)
                .seed(30)
                .build()
                .expect("valid experiment")
                .run_on(&base)
                .report
        };
        let plain = run(KeepalivePolicy::HybridHistogram);
        let warmed = run(KeepalivePolicy::HybridPrewarm);
        assert_eq!(plain.prewarm_hits, 0, "no head percentile, no hits");
        assert!(warmed.prewarm_hits > 0, "prewarmed instances get found");
        assert!(warmed.prewarm_hit_rate() > 0.0);
        assert!(
            warmed.cold_starts <= plain.cold_starts,
            "prewarm {} vs plain {}",
            warmed.cold_starts,
            plain.cold_starts
        );
        assert!(
            warmed.warm_seconds <= plain.warm_seconds,
            "released-then-prewarmed pools hold less memory"
        );
    }

    #[test]
    fn warm_second_accounting_orders_keepalive_policies() {
        // Memory cost: no-keepalive holds nothing, the 10-minute fixed
        // window holds the most, the hybrid histogram sits in between.
        let trace = std::sync::Arc::new(short_trace(40.0, 30, 31));
        let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let run = |keepalive| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .keepalive(keepalive)
                .seed(32)
                .build()
                .expect("valid experiment")
                .run_on(&base)
                .report
        };
        let none = run(KeepalivePolicy::NoKeepalive);
        let fixed = run(KeepalivePolicy::FixedWindow);
        assert_eq!(none.warm_seconds, 0.0);
        assert!(fixed.warm_seconds > 0.0);
        assert!(fixed.wasted_warm_seconds > 0.0, "final windows are wasted");
        assert!(fixed.wasted_warm_seconds <= fixed.warm_seconds);
    }

    /// The engines' checked invariants are reachable only through a
    /// corrupted rack state: consistent bookkeeping passes, and a completion
    /// on a rack with nothing busy names the broken invariant.
    #[test]
    #[should_panic(expected = "busy <= capacity invariant broken")]
    fn a_completion_with_nothing_busy_breaks_the_busy_invariant() {
        let sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
        let streams = RackStreams::new(1, 1);
        let mut rack = sim.new_rack_state(&streams, 0);
        rack.busy = 1;
        rack.release();
        assert_eq!(rack.busy, 0);
        rack.release();
    }

    /// A scale-up commit with nothing provisioning names the broken
    /// invariant; a commit of a requested scale-up passes.
    #[test]
    #[should_panic(expected = "pending > 0 at a commit invariant broken")]
    fn committing_unrequested_instances_breaks_the_pending_invariant() {
        let config = ClusterConfig {
            scaling: ScalingPolicy::Reactive,
            ..ClusterConfig::default()
        };
        let sim = ClusterSim::new(PlatformKind::DscsDsa, config);
        let streams = RackStreams::new(1, 1);
        let mut rack = sim.new_rack_state(&streams, 0);
        rack.pending = 4;
        rack.commit_scale_up();
        assert_eq!((rack.pending, rack.capacity), (0, config.min_instances + 4));
        rack.commit_scale_up();
    }

    /// A rack that can never start work — the zero-instance pool the builder
    /// rejects as [`ConfigError::ZeroMaxInstances`] — still holds queued
    /// requests when the loop drains: the drain check names the broken
    /// invariant instead of letting those requests vanish from the report.
    #[test]
    #[should_panic(expected = "empty queue at drain invariant broken")]
    fn requests_left_queued_at_drain_break_the_drain_invariant() {
        let config = ClusterConfig {
            max_instances: 0,
            queue_depth: 10,
            ..ClusterConfig::default()
        };
        let sim = ClusterSim::new(PlatformKind::DscsDsa, config);
        let trace = short_trace(50.0, 2, 33);
        let inputs = RunInputs {
            trace: &trace,
            data: None,
        };
        let streams = RackStreams::new(34, 1);
        let rack = sim.new_rack_state(&streams, 0);
        let _ = sim.run_loop(
            inputs,
            vec![rack],
            0,
            1,
            LoadBalancer::RoundRobin,
            SimDuration::from_secs(120),
        );
    }

    /// Seeded property test: the packed event heap pops exactly what a
    /// reference `BinaryHeap` ordered by `(at, seq)` pops — the same times,
    /// kinds and racks — on random schedules that mimic the loop: a clock
    /// that only moves to popped times, events due from zero to a few
    /// nanoseconds out (so many share a timestamp) and several racks.
    #[test]
    fn event_heap_pops_in_time_then_schedule_order() {
        const CASES: u64 = 64;
        let mut tied = 0;
        for case in 0..CASES {
            let mut rng = DeterministicRng::seeded(0xE7 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let racks = 1 + rng.next_index(5);
            let mut heap = EventHeap::default();
            let mut reference = BinaryHeap::new();
            let mut payloads = Vec::new();
            let mut now = 0;
            let mut last: Option<SimTime> = None;
            for step in 0..600 {
                if rng.bernoulli(0.55) {
                    let rack = rng.next_index(racks);
                    let event = match rng.next_index(3) {
                        0 => HeapEvent::Completion { rack },
                        1 => HeapEvent::ScaleTick { rack },
                        _ => HeapEvent::ScaleCommit { rack },
                    };
                    let at = SimTime::from_nanos(now + rng.next_index(4) as u64);
                    heap.schedule(at, event);
                    reference.push(Reverse((at, payloads.len())));
                    payloads.push(event);
                } else {
                    let expected = reference
                        .pop()
                        .map(|Reverse((at, seq))| (at, payloads[seq]));
                    let popped = heap.pop();
                    assert_eq!(popped, expected, "case {case}, step {step}");
                    if let Some((at, _)) = popped {
                        tied += usize::from(last == Some(at));
                        last = Some(at);
                        now = at.as_nanos();
                    }
                }
                assert_eq!(
                    heap.peek_time(),
                    reference.peek().map(|&Reverse((at, _))| at),
                    "case {case}, step {step}: earliest time"
                );
            }
            while let Some(Reverse((at, seq))) = reference.pop() {
                assert_eq!(heap.pop(), Some((at, payloads[seq])), "case {case}: drain");
            }
            assert_eq!(heap.pop(), None);
        }
        assert!(tied > 1000, "coverage: only {tied} pops shared a timestamp");
    }

    /// The packing keeps the extremes of every field: the latest time a
    /// `SimTime` holds and the last rack the key's 22 bits name.
    #[test]
    fn event_heap_keys_hold_the_extreme_time_and_rack() {
        let last_rack = ClusterSim::MAX_RACKS as usize - 1;
        let mut heap = EventHeap::default();
        let end = SimTime::from_nanos(u64::MAX);
        heap.schedule(end, HeapEvent::ScaleTick { rack: last_rack });
        heap.schedule(end, HeapEvent::Completion { rack: 0 });
        heap.schedule(SimTime::ZERO, HeapEvent::Completion { rack: last_rack });
        assert_eq!(heap.peek_time(), Some(SimTime::ZERO));
        assert_eq!(
            heap.pop(),
            Some((SimTime::ZERO, HeapEvent::Completion { rack: last_rack }))
        );
        assert_eq!(
            heap.pop(),
            Some((end, HeapEvent::ScaleTick { rack: last_rack }))
        );
        assert_eq!(heap.pop(), Some((end, HeapEvent::Completion { rack: 0 })));
        assert_eq!(heap.pop(), None);
    }

    #[test]
    #[should_panic(expected = "rack < 2^22 invariant broken")]
    fn a_rack_beyond_the_key_breaks_the_rack_invariant() {
        let rack = ClusterSim::MAX_RACKS as usize;
        EventHeap::default().schedule(SimTime::ZERO, HeapEvent::Completion { rack });
    }

    #[test]
    #[should_panic(expected = "event sequence < 2^40 invariant broken")]
    fn the_2_to_the_40th_event_breaks_the_sequence_invariant() {
        let mut heap = EventHeap {
            next_seq: (1 << SEQ_BITS) - 1,
            ..EventHeap::default()
        };
        heap.schedule(SimTime::ZERO, HeapEvent::Completion { rack: 0 });
        assert_eq!(
            heap.pop(),
            Some((SimTime::ZERO, HeapEvent::Completion { rack: 0 }))
        );
        heap.schedule(SimTime::ZERO, HeapEvent::Completion { rack: 0 });
    }

    /// The engine and the offline bound price a repeat cold start through
    /// the same [`ClusterSim::repeat_cold_start_cost`], on every platform
    /// and cold-start path: one function invoked twice with no keepalive
    /// pays a first and a repeat cold start, which is exactly the bound
    /// once warm memory is too dear to keep.
    #[test]
    fn the_engine_charges_repeat_cold_starts_at_the_bounds_price() {
        let benchmark = Benchmark::ALL[0];
        let trace: Vec<TraceRequest> = [0, 100]
            .map(|s| TraceRequest {
                arrival: SimTime::ZERO + SimDuration::from_secs(s),
                benchmark,
                function: 0,
                object: 0,
                object_size_log2: 16,
            })
            .to_vec();
        for platform in [PlatformKind::BaselineCpu, PlatformKind::DscsDsa] {
            let base = ClusterSim::new(platform, ClusterConfig::default());
            for cold_path in ColdStartPath::ALL {
                let report = Experiment::builder(platform)
                    .trace(trace.clone())
                    .keepalive(KeepalivePolicy::NoKeepalive)
                    .cold_path(cold_path)
                    .build()
                    .expect("valid experiment")
                    .run_on(&base)
                    .report;
                let sim = base.reconfigured(ClusterConfig {
                    cold_path,
                    ..ClusterConfig::default()
                });
                let repeat = sim.repeat_cold_start_cost(benchmark);
                let first = sim.cold_start_cost(benchmark);
                let case = format!("{platform:?} / {}", cold_path.name());
                assert_eq!(report.cold_starts, 2, "{case}");
                assert_eq!(report.coldstart_s, (first + repeat).as_secs_f64(), "{case}");
                let snapshot = cold_path == ColdStartPath::SnapshotRestore;
                let restored = if snapshot { repeat.as_secs_f64() } else { 0.0 };
                assert_eq!(report.restore_s, restored, "{case}");
                let bound = crate::optimal::optimal_coldstart_seconds_with(&trace, &sim, 1e9);
                assert!((bound - report.coldstart_s).abs() < 1e-12, "{case}");
            }
        }
    }

    /// The builder does not scan the trace for order; the event loop
    /// asserts it as its cursor takes each arrival.
    #[test]
    #[should_panic(expected = "arrivals in trace order invariant broken")]
    fn an_unsorted_trace_breaks_the_arrival_order_invariant() {
        let mut trace = short_trace(50.0, 2, 35);
        trace.swap(3, 4);
        let _ = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .build()
            .expect("the builder does not check arrival order")
            .run();
    }

    /// The builder does not range-check function slots either: without a
    /// data layer, the event loop's assert is the only guard between a slot
    /// at the trace's length and the per-function tables.
    #[test]
    #[should_panic(expected = "function < requests invariant broken")]
    fn a_slot_at_the_trace_length_breaks_the_function_range_invariant() {
        let mut trace = short_trace(50.0, 2, 35);
        trace[3].function = trace.len() as u32;
        let _ = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .build()
            .expect("the builder does not check function slots")
            .run();
    }

    /// A replica rack whose queue is *full* counts as saturated even when
    /// the spill threshold is deeper than the queue: the locality balancer
    /// must spill to an idle rack instead of dispatching into a rejection.
    #[test]
    fn locality_balancer_spills_before_rejecting_at_a_full_replica_rack() {
        use crate::data::DataLayer;

        // Every request reads the same object, whose single replica set
        // lives in one rack; the queue (10) is far below the spill
        // threshold (64). 400 near-simultaneous requests fit the two racks'
        // combined instances + queues (2 x (200 + 10)) only if the balancer
        // spills off the full replica rack.
        let trace: Vec<TraceRequest> = (0..400)
            .map(|i| TraceRequest {
                arrival: SimTime::from_nanos(i * 1_000),
                benchmark: Benchmark::ALL[0],
                function: 0,
                object: 0,
                object_size_log2: 18,
            })
            .collect();
        let racks = 2;
        let data = DataLayer::for_trace(&trace, racks, 5);
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace)
            .racks(racks)
            .queue_depth(10)
            .balancer(LoadBalancer::LocalityAware)
            .data_layer(data)
            .seed(6)
            .build()
            .expect("valid experiment")
            .run();
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert_eq!(
            report.rejected, 0,
            "two racks hold 420 instance+queue slots for 400 requests; \
             a full replica rack must spill, not reject"
        );
        assert!(
            summaries.iter().all(|r| r.completed > 0),
            "spilling must actually reach the non-replica rack: {summaries:?}"
        );
        assert!(
            report.remote_fetches > 0,
            "spilled requests pay the cross-rack fetch"
        );
        assert!(
            report.fetch_energy_j > 0.0,
            "cross-rack fetches carry an energy charge"
        );
    }

    /// The locality balancer's spill boundary, on racks with chosen queue
    /// lengths: a replica rack keeps the request while it holds at most
    /// [`SPILL_THRESHOLD`] queued requests and spills it to the least-loaded
    /// rack above that. A queue one short of full counts as saturated too,
    /// so with a queue depth of 10 the spill point is 9.
    #[test]
    fn locality_dispatch_spills_above_the_threshold() {
        use crate::data::DataLayer;

        let benchmark = Benchmark::ALL[0];
        let trace = vec![TraceRequest {
            arrival: SimTime::ZERO,
            benchmark,
            function: 0,
            object: 0,
            object_size_log2: 18,
        }];
        let data = DataLayer::for_trace(&trace, 3, 5);
        let home = data.home_rack(0) as usize;
        // The two other racks, the second one less loaded than the first.
        let (busier, idler) = ((home + 1) % 3, (home + 2) % 3);
        let inputs = RunInputs {
            trace: &trace,
            data: Some(&data),
        };
        let default_depth = ClusterConfig::default().queue_depth;
        for (queue_depth, keeps) in [(default_depth, SPILL_THRESHOLD), (10, 9)] {
            let sim = ClusterSim::new(
                PlatformKind::DscsDsa,
                ClusterConfig {
                    queue_depth,
                    ..ClusterConfig::default()
                },
            );
            let streams = RackStreams::new(1, 3);
            for queued in [keeps, keeps + 1] {
                let mut racks: Vec<RackState> =
                    (0..3).map(|r| sim.new_rack_state(&streams, r)).collect();
                for (rack, depth) in [(home, queued), (busier, 3), (idler, 1)] {
                    for idx in 0..depth {
                        racks[rack].queue.push(idx, benchmark);
                    }
                }
                let expected = if queued <= keeps { home } else { idler };
                assert_eq!(
                    sim.dispatch(&racks, LoadBalancer::LocalityAware, inputs, 0),
                    expected,
                    "queue depth {queue_depth}, {queued} queued at the replica rack"
                );
            }
        }
    }

    /// Bytes of draws `streams` holds in filled chunks.
    fn memo_bytes(streams: &RackStreams) -> usize {
        streams
            .racks
            .iter()
            .flat_map(|rack| rack.chunks.iter().filter_map(OnceLock::get))
            .map(|chunk| std::mem::size_of_val(&*chunk.draws))
            .sum()
    }

    /// Two threads read every rack of one `RackStreams` at once, in opposite
    /// rack orders, so they fill and read the same chunks concurrently. Each
    /// cursor yields exactly the jitter its rack's own forked generator
    /// draws directly, through the memo and three chunks past it; 33 racks
    /// leave no room for a chunk, so they draw directly from the start.
    #[test]
    fn rack_stream_cursors_yield_each_racks_direct_draws_across_threads() {
        for (racks, chunks) in [(1, 32), (2, 16), (4, 8), (33, 0)] {
            let seed = 0x5EED ^ racks;
            let mut master = DeterministicRng::seeded(seed);
            let draws = (chunks + 3) * JITTER_CHUNK;
            let expected: Vec<Vec<u64>> = (0..racks)
                .map(|r| {
                    let mut rng = master.fork(r);
                    (0..draws)
                        .map(|_| (0.15 * rng.standard_normal()).exp().to_bits())
                        .collect()
                })
                .collect();
            let streams = RackStreams::new(seed, racks as u32);
            assert!(streams.racks.iter().all(|r| r.chunks.len() == chunks));
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for reverse in [false, true] {
                    let (streams, expected, start) = (&streams, &expected, &start);
                    scope.spawn(move || {
                        start.wait();
                        let order: Vec<usize> = if reverse {
                            (0..racks as usize).rev().collect()
                        } else {
                            (0..racks as usize).collect()
                        };
                        for r in order {
                            let mut cursor = streams.cursor(r);
                            for (i, &bits) in expected[r].iter().enumerate() {
                                assert_eq!(
                                    cursor.next().to_bits(),
                                    bits,
                                    "{racks} racks: rack {r}, draw {i}"
                                );
                            }
                        }
                    });
                }
            });
            assert_eq!(
                memo_bytes(&streams),
                chunks * JITTER_CHUNK * 8 * racks as usize
            );
        }
    }

    /// Reading every rack's stream past its memo fills each rack's chunks
    /// and nothing more: at any rack count the memo holds at most 256 KiB
    /// of draws, however long the run reads on.
    #[test]
    fn the_jitter_memo_holds_at_most_256_kib_at_any_rack_count() {
        for racks in 1..=40_u32 {
            let streams = RackStreams::new(7, racks);
            let memo = streams.racks[0].chunks.len() * JITTER_CHUNK;
            for r in 0..racks as usize {
                let mut cursor = streams.cursor(r);
                for _ in 0..memo + 2 * JITTER_CHUNK {
                    cursor.next();
                }
            }
            let held = memo_bytes(&streams);
            assert!(held <= 256 * 1024, "{racks} racks hold {held} bytes");
            assert_eq!(held, memo * 8 * racks as usize, "{racks} racks");
            assert_eq!(memo == 0, racks > 32, "{racks} racks");
        }
    }

    #[test]
    fn least_loaded_beats_round_robin_under_skewed_service_times() {
        // SJF-free comparison: with heterogeneous service times, least-loaded
        // should never do much worse than round-robin on mean latency.
        let trace = std::sync::Arc::new(short_trace(1800.0, 45, 19));
        let sim = ClusterSim::new(PlatformKind::BaselineCpu, ClusterConfig::default());
        let run = |balancer| {
            Experiment::builder(PlatformKind::BaselineCpu)
                .trace(trace.clone())
                .racks(3)
                .balancer(balancer)
                .seed(20)
                .build()
                .expect("valid experiment")
                .run_on(&sim)
                .report
        };
        let rr = run(LoadBalancer::RoundRobin);
        let ll = run(LoadBalancer::LeastLoaded);
        assert!(ll.mean_latency_ms() <= rr.mean_latency_ms() * 1.05);
    }
}
