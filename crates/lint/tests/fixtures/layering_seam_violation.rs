//! Fixture: write-path crates reaching around the hook seam. Linted as
//! `kbt-serve` both imports are violations, as `kbt-net` the store one,
//! as `kbt-store` the net one; the test module is exempt everywhere.

use kbt_net::NetServer;
use kbt_store::DurableTrustServer;

pub fn serve(durable: DurableTrustServer) -> NetServer {
    NetServer::spawn(durable.into_server(), "127.0.0.1:0").unwrap()
}

#[cfg(test)]
mod tests {
    use kbt_net::NetClient;
    use kbt_store::StoreConfig;
}
