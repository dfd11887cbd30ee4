//! The paper's motivating scenario: wildfire detection over drone imagery
//! (the SDG&E remote-sensing application).
//!
//! The example walks the whole DSCS-Serverless flow: parse the deployment
//! configuration (with the `acceleratable` hints), deploy it to the function
//! registry, place the incoming image on a DSCS-Drive in the object store,
//! schedule the request with the DSCS-aware scheduler, and compare the
//! end-to-end latency against the traditional remote-storage execution —
//! including what happens when the drone uploads a burst of images (batching).
//!
//! Run with: `cargo run --example wildfire_remote_sensing`

use dscs_serverless::core::benchmarks::Benchmark;
use dscs_serverless::core::endtoend::{EvalOptions, SystemModel};
use dscs_serverless::faas::config::parse_deployment;
use dscs_serverless::faas::registry::FunctionRegistry;
use dscs_serverless::faas::scheduler::{NodeCapability, NodeId, PendingRequest, Scheduler};
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::storage::object_store::ObjectStore;

const DEPLOYMENT_YAML: &str = r#"
app: remote-sensing
provider: openfaas
functions:
  - name: decode-and-resize
    role: preprocess
    acceleratable: true
    image_mb: 180
  - name: wildfire-vit
    role: inference
    acceleratable: true
    image_mb: 480
    timeout_s: 30
  - name: alert-dispatch
    role: notification
    acceleratable: false
    image_mb: 60
"#;

fn main() {
    // 1. Deploy the application.
    let pipeline = parse_deployment(DEPLOYMENT_YAML).expect("deployment config is valid");
    let mut registry = FunctionRegistry::new();
    registry.deploy(pipeline).expect("first deployment");
    println!("deployed applications: {:?}", registry.app_names());

    // 2. The drone image arrives at the object store; the replica of an
    //    acceleratable function's input lands on a DSCS-Drive.
    let mut store = ObjectStore::with_node_counts(6, 2);
    let mut rng = DeterministicRng::seeded(2024);
    let spec = Benchmark::RemoteSensing.spec();
    let meta = store
        .put("drone/frame-000193.jpg", spec.input_size, true, &mut rng)
        .expect("store has DSCS nodes");
    let data_node = store
        .dscs_replica("drone/frame-000193.jpg")
        .expect("object exists")
        .expect("has a DSCS replica");
    println!(
        "image ({}) stored with replicas {:?}; DSCS replica on node {:?}",
        meta.size, meta.replicas, data_node
    );

    // 3. Schedule the request: the DSCS-aware scheduler maps it onto the
    //    storage node that already holds the data.
    let mut scheduler = Scheduler::new(
        (0..6u32)
            .map(|i| (NodeId(i), NodeCapability::Compute))
            .chain((6..8u32).map(|i| (NodeId(i), NodeCapability::DscsStorage))),
        10_000,
    );
    scheduler
        .submit(PendingRequest {
            id: 1,
            app: "remote-sensing".to_string(),
            acceleratable: true,
            data_node: Some(NodeId(6 + data_node.0 % 2)),
        })
        .expect("queue has room");
    let placements = scheduler.dispatch();
    println!("scheduler placement: {:?}", placements[0].1);

    // 4. Evaluate the end-to-end latency on both systems.
    let system = SystemModel::new();
    for batch in [1u64, 8, 64] {
        let options = EvalOptions {
            batch,
            ..EvalOptions::default()
        };
        let baseline =
            system.evaluate(Benchmark::RemoteSensing, PlatformKind::BaselineCpu, options);
        let dscs = system.evaluate(Benchmark::RemoteSensing, PlatformKind::DscsDsa, options);
        println!(
            "batch {batch:>3}: baseline {:>9.1} ms | DSCS {:>9.1} ms | speedup {:>5.2}x | per-image DSCS latency {:>7.1} ms",
            baseline.total_latency().as_millis_f64(),
            dscs.total_latency().as_millis_f64(),
            baseline.total_latency().as_secs_f64() / dscs.total_latency().as_secs_f64(),
            dscs.total_latency().as_millis_f64() / batch as f64,
        );
    }
}
