//! ResNet-50 behind the serving front-end: 64 concurrent single-image
//! clients against one `feather_serve::Server`.
//!
//! 1. **Register** — the scaled-down ResNet-50 DAG (`÷16` channels and
//!    spatial, full 72-node topology) is planned into a batch-1
//!    `GraphSession` and compiled into the model's one `Program`, which
//!    every batch of every size then replays.
//! 2. **Load** — 64 client threads release from a barrier simultaneously and
//!    each submit single-sample requests drawn from a pool of 8 distinct
//!    images, then block on their tickets.
//! 3. **Coalesce** — the scheduler folds concurrent requests into batches
//!    (up to `max_batch = 8`), each one replay of that program with one
//!    request per lane, so the batch-size histogram shows real dynamic
//!    batching, not 128 solo runs.
//! 4. **Verify** — every response is compared bit-for-bit against a solo
//!    batch-1 run of the same image: batching must be unobservable in the
//!    numbers.
//!
//! ```text
//! cargo run --release -p feather-suite --example serve_resnet50
//! ```

use std::sync::{Arc, Barrier};
use std::time::Instant;

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::resnet50_graph_scaled;
use feather_arch::tensor::Tensor4;
use feather_serve::{ServeConfig, Server};

const CLIENTS: usize = 64;
const REQUESTS_PER_CLIENT: usize = 2;
const DISTINCT_IMAGES: usize = 8;

fn main() {
    let graph = resnet50_graph_scaled(16, 16);
    let config = FeatherConfig::new(16, 16);
    let weights = graph.random_weights(43);
    println!(
        "model `{}`: {} nodes ({} convs, {} residual adds), input {:?}",
        graph.name,
        graph.len(),
        graph.conv_node_count(),
        graph.add_node_count(),
        graph.tensor_shape(graph.input()),
    );

    // Solo goldens: one batch-1 run per distinct image, outside the server.
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let images: Vec<Tensor4<i8>> = (0..DISTINCT_IMAGES)
        .map(|i| Tensor4::random([1, c, h, w], 1000 + i as u64))
        .collect();
    let solo = GraphSession::auto(config, &graph).expect("solo session compiles");
    let t0 = Instant::now();
    let goldens: Vec<Tensor4<i32>> = images
        .iter()
        .map(|img| solo.run(img, &weights).expect("solo run").oacts)
        .collect();
    println!(
        "goldens: {DISTINCT_IMAGES} solo batch-1 runs in {:.2?}",
        t0.elapsed()
    );

    // The server: batch up to 8 (a non-full batch is held only for the
    // returns its model's last batch predicts), admit up to 128 queued
    // requests per tenant (all 64 clients can be in flight at once), and
    // run a 2-worker executor pool whose idle worker forms the next batch.
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 8,
        queue_depth: 128,
        default_deadline: None,
        workers: 2,
        ..ServeConfig::default()
    }));
    server
        .register_model("resnet50", config, &graph, weights)
        .expect("model registers");

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let t1 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = server.clone();
            let barrier = barrier.clone();
            let images = &images;
            let goldens = &goldens;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..REQUESTS_PER_CLIENT {
                    let img = (client + i * 3) % DISTINCT_IMAGES;
                    let tenant = format!("tenant-{}", client % 4);
                    let ticket = server
                        .submit(&tenant, "resnet50", images[img].clone())
                        .expect("queue_depth admits all concurrent clients");
                    let response = ticket.wait().expect("request completes");
                    assert_eq!(
                        response.oacts, goldens[img],
                        "client {client} image {img} diverged from its solo run"
                    );
                }
            });
        }
    });
    let wall = t1.elapsed();

    let stats = server.stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.rejected + stats.timed_out, 0);
    println!(
        "\nserved {total} requests from {CLIENTS} concurrent clients in {:.2?} \
         ({:.1} req/s)",
        wall,
        total as f64 / wall.as_secs_f64(),
    );
    println!(
        "batch histogram: {:?} — {} executor runs, mean batch {:.2}, largest {}",
        stats.batches,
        stats.executed_batches(),
        stats.mean_batch(),
        stats.max_batch_executed(),
    );
    assert!(
        stats.max_batch_executed() > 1,
        "64 simultaneous clients must coalesce into multi-batch runs"
    );
    assert!((stats.executed_batches() as usize) < CLIENTS * REQUESTS_PER_CLIENT);
    println!("dynamic batching coalesced concurrent requests into multi-batch runs");
    println!(
        "executor pool: batches per worker {:?}, peak {} batch(es) in flight",
        stats.worker_batches, stats.max_concurrent_batches,
    );

    println!(
        "\n{:<12} {:>9} {:>14} {:>14} {:>14}",
        "tenant", "requests", "mean lat (us)", "cycles", "DRAM bytes"
    );
    for (tenant, t) in &stats.tenants {
        println!(
            "{:<12} {:>9} {:>14.0} {:>14} {:>14}",
            tenant,
            t.completed,
            t.mean_latency_us(),
            t.cycles,
            t.dram_bytes,
        );
    }

    let program = solo.compile().expect("solo session compiles");
    println!(
        "\nprogram: {} distinct BIRRD routes, {} route fires per replay",
        program.distinct_routes(),
        program.route_fires(),
    );

    println!("\nall {total} responses verified bit-identical to solo batch-1 runs");
    println!("serving OK");
}
