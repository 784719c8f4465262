//! Fixture: the clean twin — the same fan-out on `kbt-flume`'s adapter,
//! the worker count from its policy, and raw threads only in test code.

pub fn fan_out(xs: &mut [u64]) {
    kbt_flume::par_ranges_mut(xs, |_, part| part.iter_mut().for_each(|x| *x += 1));
}

pub fn worth_splitting(len: usize) -> bool {
    len >= 1 << 15 && kbt_flume::num_threads() > 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn races_two_callers() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            scope.spawn(|| super::worth_splitting(n));
        });
        std::thread::spawn(|| ()).join().unwrap();
    }
}
