//! Fixture: hand-rolled thread fan-out and a private worker-count policy
//! — linted as `kbt-core`, all three calls below bypass `kbt-flume` and
//! must be flagged.

pub fn fan_out(xs: &mut [u64]) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = xs.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        for part in xs.chunks_mut(chunk) {
            scope.spawn(move || part.iter_mut().for_each(|x| *x += 1));
        }
    });
}

pub fn detach() {
    use std::thread;
    thread::spawn(|| ()).join().ok();
}
