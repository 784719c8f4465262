//! A durable trust service, end to end: store → server → socket → client,
//! then a restart from the same directory.
//!
//! The store (`kbt-store`) is the trust server's durability hook, so
//! `DurableTrustServer::into_server()` hands `NetServer::spawn` a server
//! that keeps logging and committing behind the socket. This example
//! opens (or, the first time, creates) a store in a temp directory,
//! serves it warm on an ephemeral loopback port, ingests a batch over a
//! `NetClient` and stops without a checkpoint, the way a killed process
//! would — and then serves the directory again, which has to replay the
//! warm log and serves the same `(epoch, fingerprint)` the first process
//! last served. That one shuts down properly: it checkpoints the server
//! it gets back.
//!
//! Run with: `cargo run --release --example durable_service`

use std::error::Error;
use std::path::Path;
use std::time::Duration;

use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::store::StoreError;
use kbt::{DurableTrustServer, FusionSession, Model, NetClient, NetServer, RefitMode, StoreConfig};

fn obs(source: u32, item: u32, value: u32) -> Observation {
    Observation::certain(
        ExtractorId::new(0),
        SourceId::new(source),
        ItemId::new(item),
        ValueId::new(value),
    )
}

/// Resume the store in `dir`, or start one over a small seed corpus
/// (four sources, the odd ones wrong about everything).
fn open_or_create(dir: &Path) -> Result<DurableTrustServer, StoreError> {
    // An epoch is a function of the log, warm refits included: the
    // checkpoint carries the warm state, and a restart that has to
    // replay the log runs the live server's refit step per commit.
    let (model, mode, config) = (
        Model::multi_layer(),
        RefitMode::Warm,
        StoreConfig::default(),
    );
    std::fs::create_dir_all(dir)?;
    match DurableTrustServer::open(dir, model.clone(), mode, config.clone()) {
        Err(StoreError::NoCheckpoint) => {
            let seed = (0..4)
                .flat_map(|w| (0..10).map(move |d| obs(w, d, w % 2)))
                .collect();
            let session = FusionSession::from_observations(seed, model);
            DurableTrustServer::create(dir, session, mode, config)
        }
        opened => opened,
    }
}

/// One process lifetime: serve the store in `dir`, optionally ingest
/// `batch` over the wire and wait for it to be published, shut down
/// and, if asked, checkpoint. Returns the `(epoch, fingerprint)` served
/// last.
fn serve_once(
    dir: &Path,
    batch: Option<Vec<Observation>>,
    checkpoint: bool,
) -> Result<(u64, u64), Box<dyn Error>> {
    let durable = open_or_create(dir)?;
    let net = NetServer::spawn(durable.into_server(), "127.0.0.1:0")?;
    let mut client = NetClient::connect(net.addr())?;
    let (epoch, fingerprint) = client.ping()?;
    println!(
        "serving {} from {}: epoch {epoch}, fingerprint {fingerprint:#018x}",
        net.addr(),
        dir.display()
    );

    if let Some(batch) = batch {
        // The ack means queued; the epoch advance means the batch was
        // logged and applied, with the commit (marker + fsync) the
        // writer's very next step.
        let queued = client.ingest(batch)?;
        while client.ping()?.0 == epoch {
            std::thread::sleep(Duration::from_millis(5));
        }
        let trust = client.trust(SourceId::new(4))?;
        println!(
            "ingested {queued} observations: epoch {}, trust of the new source {:.3}",
            trust.epoch,
            trust.value.unwrap_or(f64::NAN)
        );
    }
    let served = client.ping()?;

    // Shutdown hands the server back with its store still attached.
    let mut down = net.shutdown()?;
    down.durability?;
    if checkpoint {
        let checkpointed = down.server.checkpoint_now()?;
        println!("shut down after checkpointing epoch {checkpointed}");
    } else {
        println!("shut down with epoch {} in the log alone", served.0);
    }
    Ok(served)
}

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("kbt-durable-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let batch = (0..10).map(|d| obs(4, d, 0)).collect();
    let first = serve_once(&dir, Some(batch), false)?;
    let second = serve_once(&dir, None, true)?;
    std::fs::remove_dir_all(&dir)?;

    if first != second {
        return Err(format!("restart served {second:?}, not {first:?}").into());
    }
    println!(
        "restart serves the same state: epoch {}, fingerprint {:#018x}",
        second.0, second.1
    );
    Ok(())
}
