//! The thread budget of a running [`NetServer`], counted in
//! `/proc/self/task`: the accept loop, the trust writer, and one thread
//! per connection — the thread that reads a request writes its reply.
//! Alone in its file, so the test process runs nothing else meanwhile.
#![cfg(target_os = "linux")]

use std::thread;
use std::time::{Duration, Instant};

use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt_net::{NetClient, NetServer};
use kbt_pipeline::TrustPipeline;
use kbt_serve::{RefitMode, TrustServer};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn a_server_runs_two_threads_plus_one_per_connection() {
    const CLIENTS: usize = 4;
    let corpus: Vec<Observation> = (0..4u32)
        .flat_map(|w| {
            (0..10u32).map(move |d| {
                Observation::certain(
                    ExtractorId::new(0),
                    SourceId::new(w),
                    ItemId::new(d),
                    ValueId::new(w % 2),
                )
            })
        })
        .collect();
    let server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus).threads(1),
        RefitMode::Warm,
    )
    .expect("seed corpus fits");

    let before = live_threads();
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind");
    let mut clients: Vec<NetClient> = (0..CLIENTS)
        .map(|_| NetClient::connect(net.addr()).expect("connect"))
        .collect();
    for client in &mut clients {
        client.ping().expect("ping");
    }
    let started = Instant::now();
    while net.stats().active != CLIENTS as u64 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "clients active"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        live_threads() - before,
        2 + CLIENTS,
        "the accept loop, the trust writer and one thread per connection"
    );

    drop(clients);
    net.shutdown().expect("clean shutdown");
}
