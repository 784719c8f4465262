//! Fixture: the clean twin — the write path composed through the seam.
//! Everything below the server is named by `kbt_serve` / `kbt_pipeline`
//! types; the store and the socket appear in test code only.

use kbt_pipeline::Delta;
use kbt_serve::{DurabilityHook, HookError, TrustServer};

pub fn attach(server: &mut TrustServer, hook: Box<dyn DurabilityHook>) {
    server.set_hook(hook);
}

pub fn submit(server: &mut TrustServer, delta: Delta) -> Result<(), HookError> {
    server.submit(delta)
}

#[cfg(test)]
mod tests {
    use kbt_net::NetServer;
    use kbt_store::DurableTrustServer;
}
