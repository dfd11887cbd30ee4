//! Cold-start modalities head to head: is it cheaper to keep instances warm
//! (prewarming on the flash-reload path) or to let them die and restore a
//! process snapshot on the next invocation?
//!
//! The sweep runs one policy point per (cold path x keepalive) combination
//! over the Azure-style smoke workload: the `fresh` path always spawns from
//! the remote registry, `flash` reloads the container image from the node's
//! drive (the paper's DSCS path), and `snapshot` restores a CRIU-style
//! process checkpoint from local NVMe — priced by snapshot size, restore
//! bandwidth and the page-fault warmup tail. Every cell reports its regret
//! against the offline-optimal bound priced under its *own* modality, and
//! the final line answers the prewarm-vs-restore crossover question the
//! `reproduce at-scale` CLI prints as its headline.
//!
//! Run with: `cargo run --release --example coldstart_paths`

// Examples document the supported API surface: using a deprecated cluster
// entry point here is a build error, not a warning.
#![deny(deprecated)]

use dscs_serverless::cluster::at_scale::{SweepScale, SweepSpec};
use dscs_serverless::cluster::coldpath::{ColdStartPath, IpcTransport};
use dscs_serverless::cluster::policy::{
    KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
use dscs_serverless::platforms::PlatformKind;
use dscs_serverless::simcore::quantity::Bytes;
use dscs_serverless::storage::snapshot::{restore_latency, warmup_tail};

fn main() {
    // The cost model behind the `snapshot` axis value, queried directly:
    // restore latency = setup + sequential page stream + demand-fault tail.
    println!("snapshot-restore time-to-ready (CRIU from local NVMe):");
    for mib in [32, 128, 512] {
        let size = Bytes::from_mib(mib);
        println!(
            "  {mib:>4} MiB: {} ({} of it the page-fault warmup tail)",
            restore_latency(size),
            warmup_tail(size)
        );
    }

    // One sweep, modality as a first-class axis: 3 cold paths x 2 keepalive
    // policies (no keepalive vs hybrid prewarming) on one platform/policy
    // point. `ipcs` stays at its `shm` default — swap in
    // `IpcTransport::ALL.to_vec()` to also price socket/HTTP request paths.
    let report = SweepSpec {
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![
            KeepalivePolicy::NoKeepalive,
            KeepalivePolicy::prewarm_default(),
        ],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::RoundRobin],
        cold_paths: ColdStartPath::ALL.to_vec(),
        ipcs: vec![IpcTransport::SharedMem],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    }
    .run()
    .expect("the modality grid is a valid sweep");

    println!("\nazure workload, fcfs / fixed / round-robin:");
    println!(
        "  {:<9} {:<15} {:>6} {:>12} {:>12} {:>10} {:>8}",
        "path", "keepalive", "colds", "coldstart_s", "restore_s", "bound_s", "regret"
    );
    for cell in report.cells.iter().filter(|c| c.workload == "azure") {
        println!(
            "  {:<9} {:<15} {:>6} {:>12.2} {:>12.2} {:>10.2} {:>7.1}%",
            cell.cold_path.name(),
            cell.keepalive.name(),
            cell.cold_starts,
            cell.coldstart_s,
            cell.restore_s,
            cell.optimal_coldstart_s,
            cell.regret_pct * 100.0
        );
    }

    // The crossover: best prewarmed flash cell vs best snapshot cell.
    let best = |path: ColdStartPath| {
        report
            .cells
            .iter()
            .filter(|c| c.workload == "azure" && c.cold_path == path)
            .min_by(|a, b| a.coldstart_s.total_cmp(&b.coldstart_s))
            .expect("both paths are on the sweep axis")
    };
    let prewarm = best(ColdStartPath::FlashReload);
    let restore = best(ColdStartPath::SnapshotRestore);
    println!(
        "\nprewarm vs restore: best flash cell ({}) pays {:.2} s of cold starts, \
         best snapshot cell ({}) pays {:.2} s — {}",
        prewarm.keepalive.name(),
        prewarm.coldstart_s,
        restore.keepalive.name(),
        restore.coldstart_s,
        if restore.coldstart_s < prewarm.coldstart_s {
            "snapshot restore wins"
        } else {
            "prewarming wins"
        }
    );
}
