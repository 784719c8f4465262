//! `ExactSum` against an independent oracle, and `run_tasks`' panic
//! rule.
//!
//! The oracle is Shewchuk's exact partials with a final half-even
//! correction — the algorithm of Python's `math.fsum` — a different
//! representation (a list of non-overlapping doubles) from the
//! accumulator's fixed-point chunks. Every case is seeded; each checks
//! `finish` against the oracle bit for bit, then that shuffling the
//! addends or splitting them over 1, 2, 3 or 8 accumulators merged in any
//! order gives the same bits.

use std::panic::catch_unwind;

use kbt_flume::{run_tasks, with_threads, ExactSum};

/// SplitMix64: a seeded generator, so every case replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn sign(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    fn shuffle(&mut self, xs: &mut [f64]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The correctly rounded sum by Shewchuk's partials (Python's
/// `math.fsum`): keep the running sum exactly as non-overlapping doubles,
/// then add them from the top, correcting the last rounding to half-even
/// when the remainder is exactly half an ulp.
fn fsum(xs: &[f64]) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    for &x0 in xs {
        let mut x = x0;
        let mut i = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        partials.truncate(i);
        partials.push(x);
    }
    let Some(mut n) = partials.len().checked_sub(1) else {
        return 0.0;
    };
    let mut hi = partials[n];
    let mut lo = 0.0;
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = partials[n];
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

fn exact(xs: &[f64]) -> f64 {
    let mut s = ExactSum::default();
    xs.iter().for_each(|&x| s.add(x));
    s.finish()
}

/// The bits of a sum; an exact zero is `+0.0` whatever its addends.
fn bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// `finish` equals the oracle, and no shuffle or split-and-merge moves a
/// bit.
fn check(case: &str, xs: &[f64], rng: &mut Rng) {
    let want = bits(fsum(xs));
    assert_eq!(bits(exact(xs)), want, "{case}: against the oracle");
    let mut shuffled = xs.to_vec();
    for round in 0..3 {
        rng.shuffle(&mut shuffled);
        assert_eq!(bits(exact(&shuffled)), want, "{case}: shuffle {round}");
    }
    for parts in [1usize, 2, 3, 8] {
        // Uneven random cuts, each part summed alone (in one `extend`),
        // merged in a random order into a random part.
        let mut cuts: Vec<usize> = (1..parts).map(|_| rng.below(xs.len() + 1)).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([xs.len()]).collect();
        let mut sums: Vec<ExactSum> = bounds
            .windows(2)
            .map(|w| {
                let mut s = ExactSum::default();
                s.extend(shuffled[w[0]..w[1]].iter().copied());
                s
            })
            .collect();
        let mut into = sums.swap_remove(rng.below(parts));
        while !sums.is_empty() {
            into.merge(&sums.swap_remove(rng.below(sums.len())));
        }
        assert_eq!(bits(into.finish()), want, "{case}: {parts} parts");
    }
}

#[test]
fn single_addends_round_trip_and_empty_is_zero() {
    assert_eq!(ExactSum::default().finish().to_bits(), 0);
    let mut rng = Rng(1);
    let edges = [
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::MAX,
        -f64::MAX,
        1.0,
        -0.5,
    ];
    let random = (0..10_000)
        .map(|_| f64::from_bits((rng.next() & !(0x7ff << 52)) | ((rng.next() % 0x7ff) << 52)));
    for x in edges.into_iter().chain(random) {
        assert_eq!(exact(&[x]).to_bits(), bits(x), "{x:e}");
        assert_eq!(bits(exact(&[x, -x])), 0, "{x:e} cancels");
    }
}

#[test]
fn past_the_largest_finite_sum_is_infinite() {
    assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
    assert_eq!(exact(&[-f64::MAX, -f64::MAX, 1.0]), f64::NEG_INFINITY);
    // Half an ulp of MAX rounds up (MAX's significand is odd)...
    let half_ulp = f64::from_bits(0x7c9 << 52);
    assert_eq!(exact(&[f64::MAX, half_ulp]), f64::INFINITY);
    // ...and anything short of it does not.
    assert_eq!(exact(&[f64::MAX, half_ulp, -1e-300]), f64::MAX);
    assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
}

#[test]
fn subnormals_sum_exactly() {
    let mut rng = Rng(2);
    let xs: Vec<f64> = (0..5_000)
        .map(|k| {
            let x = if k % 5 == 0 {
                // A small normal, so the sum crosses into the normal range.
                f64::MIN_POSITIVE * (1.0 + 3.0 * rng.unit())
            } else {
                f64::from_bits(rng.next() & ((1 << 52) - 1))
            };
            rng.sign() * x
        })
        .collect();
    check("subnormals", &xs, &mut rng);
}

#[test]
fn huge_terms_cancel_without_losing_the_small_ones() {
    let mut rng = Rng(3);
    let big = 2f64.powi(1000);
    let mut xs = Vec::new();
    for _ in 0..2_000 {
        let b = big * (1.0 + rng.unit());
        xs.extend([b, rng.unit() * 1e-3, -b, rng.sign() * rng.unit() * 1e-200]);
    }
    rng.shuffle(&mut xs);
    // Naive left-to-right addition loses every small term to the huge
    // ones; the oracle and the accumulator keep them.
    let small: f64 = fsum(&xs);
    assert!(small > 0.5 && small < 2.0, "{small}");
    check("±2^1000 cancellation", &xs, &mut rng);
    // One huge survivor with a tail far below its ulp.
    xs.push(big);
    check("2^1000 and a tail", &xs, &mut rng);
}

#[test]
fn exact_halfway_sums_round_to_even() {
    let eps = f64::EPSILON; // 2⁻⁵²: one ulp of 1.0
                            // 1 + ulp/2 is a tie: to the even 1.0; 1 + ulp + ulp/2 is a tie: to
                            // the even 1 + 2·ulp; anything past the tie rounds away.
    assert_eq!(exact(&[1.0, eps / 2.0]), 1.0);
    assert_eq!(exact(&[1.0, eps, eps / 2.0]), 1.0 + 2.0 * eps);
    assert_eq!(exact(&[1.0, eps / 2.0, f64::from_bits(1)]), 1.0 + eps);
    assert_eq!(exact(&[-1.0, -eps / 2.0]), -1.0);
    let mut rng = Rng(4);
    for case in 0..200 {
        // A random odd or even significand at a random scale, half its ulp
        // split over many terms, and sometimes a nudge past the tie.
        let a = (1.0 + rng.unit()) * 2f64.powi(rng.below(400) as i32 - 200);
        let half_ulp = (f64::from_bits(a.to_bits() + 1) - a) / 2.0;
        let mut xs = vec![a];
        xs.extend(std::iter::repeat_n(half_ulp / 64.0, 64));
        match case % 3 {
            0 => xs.push(half_ulp * 1e-20),
            1 => xs.push(-half_ulp * 1e-20),
            _ => {}
        }
        for x in &mut xs {
            *x *= if case % 2 == 0 { 1.0 } else { -1.0 };
        }
        check(&format!("tie {case}"), &xs, &mut rng);
    }
}

#[test]
fn a_million_unit_interval_addends() {
    let mut rng = Rng(5);
    let xs: Vec<f64> = (0..1_000_000).map(|_| rng.unit()).collect();
    check("10^6 in [0, 1]", &xs, &mut rng);
    // The correctly rounded sum differs from the left-to-right one, which
    // is why no order may be imposed on it.
    let naive: f64 = xs.iter().sum();
    assert!((naive - fsum(&xs)).abs() < 1e-6);
}

#[test]
fn mixed_magnitudes_over_the_whole_range() {
    let mut rng = Rng(6);
    let xs: Vec<f64> = (0..20_000)
        .map(|_| rng.sign() * (1.0 + rng.unit()) * 2f64.powi(rng.below(2000) as i32 - 1060))
        .collect();
    check("2^-1060..2^940", &xs, &mut rng);
}

/// A task's panic leaves `run_tasks` as a panic, at every worker count —
/// never a hang or a partial result.
#[test]
fn a_worker_panic_propagates_at_any_worker_count() {
    for threads in [1usize, 2, 3, 8] {
        let outcome = catch_unwind(|| {
            with_threads(Some(threads), || {
                run_tasks(24, &mut vec![(); threads], |_, i| -> Result<usize, ()> {
                    if i == 1 {
                        panic!("task 1 panicked");
                    }
                    Ok(i)
                })
            })
        });
        assert!(outcome.is_err(), "x{threads}: the panic must propagate");
    }
}
