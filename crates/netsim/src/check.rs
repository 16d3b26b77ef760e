//! A property harness over [`DetRng`] that shrinks its counterexamples.
//!
//! [`forall`] runs a property on cases from a generator, a closure over a [`Draw`]
//! that records the raw `u64`s it hands out (from `DetRng::derive(case, name)`).
//! Values map draws onto ranges monotonically (`lo + (raw·span >> 64)`), so a failure
//! shrinks by editing that tape alone: delete draws, zero them, binary-search each
//! toward 0 (a short tape replays zeros). As in pp-fuzz's shrinker, the first edit
//! that still fails on a smaller tape (shorter, or as long and lexicographically less)
//! is kept and the scan restarts, within `SHRINK_BUDGET` runs. A property fails by
//! returning `Err` (see [`prop_assert!`](crate::prop_assert)) or by panicking.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::DetRng;

/// Property runs one shrink may spend.
const SHRINK_BUDGET: usize = 10_000;

/// The draw source handed to generators.
pub struct Draw {
    rng: Option<DetRng>,
    tape: Vec<u64>,
    pos: usize,
}

impl Draw {
    /// The next raw draw.
    fn raw(&mut self) -> u64 {
        if self.pos == self.tape.len() {
            let v = self.rng.as_mut().map_or(0, DetRng::next_u64);
            self.tape.push(v);
        }
        self.pos += 1;
        self.tape[self.pos - 1]
    }

    /// An unsigned integer in `r`. Panics if `r` is empty.
    pub fn range<T: TryFrom<u64> + TryInto<u64>>(&mut self, r: Range<T>) -> T {
        let wide = |v: T| v.try_into().ok().expect("an unsigned integer");
        let (lo, hi) = (wide(r.start), wide(r.end));
        assert!(lo < hi, "empty range");
        let v = lo + ((u128::from(self.raw()) * u128::from(hi - lo)) >> 64) as u64;
        T::try_from(v).ok().expect("in range")
    }

    /// Any unsigned integer of up to 64 bits: the draw's top bits.
    pub fn any<T: TryFrom<u64>>(&mut self) -> T {
        let v = self.raw() >> (64 - 8 * std::mem::size_of::<T>());
        T::try_from(v).ok().expect("an unsigned integer")
    }

    /// A fair coin; shrinks to `false`.
    pub fn bool(&mut self) -> bool {
        self.raw() >> 63 == 1
    }

    /// A vector with a length uniform in `len`. Past the minimum, each element follows a
    /// draw that ends the vector when it maps to 0: deleting both deletes the element.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut v = Vec::new();
        while v.len() < len.start || v.len() + 1 < len.end && self.range(0..len.end - v.len()) > 0 {
            v.push(elem(self));
        }
        v
    }
}

/// Checks `prop` on `cases` inputs from `gen`; on the first failure, panics with the test
/// name, the case index and its seed, the shrunk input, the message, and the input as drawn.
pub fn forall<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Draw) -> T,
    prop: impl Fn(T) -> Result<(), String>,
) {
    // The tape a run consumed, and its failure message if the property failed or panicked.
    let attempt = |mut draw: Draw| {
        let result = catch_unwind(AssertUnwindSafe(|| prop(gen(&mut draw))));
        draw.tape.resize(draw.pos, 0);
        let failure = result.unwrap_or_else(|p| {
            let text = p.downcast_ref::<&str>().map_or("", |s| s);
            Err(format!("panicked: {}", p.downcast_ref::<String>().map_or(text, String::as_str)))
        });
        (draw.tape, failure.err())
    };
    let first = (0..cases).find_map(|case| {
        let rng = DetRng::derive(case.into(), name);
        let (tape, failure) = attempt(Draw { rng: Some(rng), tape: vec![], pos: 0 });
        failure.map(|m| (case, tape, m))
    });
    let Some((case, drawn, mut message)) = first else { return };
    let (mut shrunk, mut steps, mut runs) = (drawn.clone(), 0, 0);
    // A candidate's (tape, message) when it still fails on a smaller tape.
    let mut probe = |cand: Vec<u64>, cur: &[u64]| {
        runs += 1;
        match (runs <= SHRINK_BUDGET).then(|| attempt(Draw { rng: None, tape: cand, pos: 0 })) {
            Some((t, Some(m))) if (t.len(), &t[..]) < (cur.len(), cur) => Some((t, m)),
            _ => None,
        }
    };
    loop {
        let (cur, n) = (&shrunk, shrunk.len());
        let edit = |i: usize, v: u64| [&cur[..i], &[v], &cur[i + 1..]].concat();
        let deletions = [8, 4, 3, 2, 1].into_iter().flat_map(|k| {
            (0..n.saturating_sub(k - 1)).rev().map(move |i| [&cur[..i], &cur[i + k..]].concat())
        });
        let zeros = (0..n).filter(|&i| cur[i] > 0).map(|i| edit(i, 0));
        let mut kept = deletions.chain(zeros).find_map(|c| probe(c, cur));
        // Binary search: 0 passed above, so `lo` passes and `hi` fails.
        for i in 0..n {
            let (mut lo, mut hi) = (0, if kept.is_none() { cur[i] } else { 0 });
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                match probe(edit(i, mid), cur) {
                    Some(k) => (hi, kept) = (mid, Some(k)),
                    None => lo = mid,
                }
            }
        }
        let Some((tape, m)) = kept else { break };
        (shrunk, message, steps) = (tape, m, steps + 1);
    }
    let show = |tape| format!("{:?}", gen(&mut Draw { rng: None, tape, pos: 0 }));
    let (shrunk, drawn, k) = (show(shrunk), show(drawn), case + 1);
    panic!(
        "property {name} failed at case {k}/{cases} (seed: DetRng::derive({case}, {name:?}))\n  \
         input (shrunk in {steps} step(s)): {shrunk}\n  {message}\n  input as drawn: {drawn}"
    );
}

/// `assert!` for a property: returns the failure as `Err` instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($c:expr $(,)?) => { $crate::prop_assert!($c, "assertion failed: {}", stringify!($c)) };
    ($c:expr, $($m:tt)+) => { if !$c { return Err(format!($($m)+)); } };
}

/// `assert_eq!` for a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($l:expr, $r:expr $(, $($m:tt)+)?) => {{
        let (l, r, note) = (&$l, &$r, String::new() $(+ &format!(" ({})", format_args!($($m)+)))?);
        let (ls, rs) = (stringify!($l), stringify!($r));
        $crate::prop_assert!(*l == *r, "`{ls} == {rs}`{note}\n  left: {l:?}\n  right: {r:?}");
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report `forall` panics with on a failure of `prop`.
    fn report<T: Debug>(
        gen: impl Fn(&mut Draw) -> T,
        prop: impl Fn(T) -> Result<(), String>,
    ) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| forall("report", 32, gen, prop)));
        *err.expect_err("the property fails").downcast::<String>().expect("a text report")
    }

    /// The shrunk input a report prints.
    fn shrunk(report: &str) -> &str {
        let line = report.lines().nth(1).expect("an input line");
        line.split_once("): ").expect("a shrunk input").1
    }

    #[test]
    fn an_integer_bound_shrinks_to_the_boundary() {
        let r = report(
            |d| d.any::<u64>(),
            |x| {
                prop_assert!(x < 1000);
                Ok(())
            },
        );
        assert_eq!(shrunk(&r), "1000", "{r}");
    }

    #[test]
    fn a_length_bound_shrinks_to_zeroed_elements() {
        let r = report(
            |d| d.vec(0..64, |d| d.any::<u8>()),
            |v| {
                prop_assert!(v.len() < 5);
                Ok(())
            },
        );
        assert_eq!(shrunk(&r), "[0, 0, 0, 0, 0]", "{r}");
    }

    #[test]
    fn a_panic_fails_the_case_and_shrinks() {
        let r = report(
            |d| d.any::<u32>(),
            |x| {
                assert!(x < 1 << 20, "too big");
                Ok(())
            },
        );
        assert_eq!(shrunk(&r), (1 << 20).to_string(), "{r}");
        assert_eq!(r.lines().nth(2), Some("  panicked: too big"), "{r}");
    }

    #[test]
    fn ranged_draws_stay_in_range() {
        forall(
            "ranged_draws_stay_in_range",
            256,
            |d| (d.range(10u64..20), d.range(3u8..4), d.vec(2..5, |d| d.range(64u32..96))),
            |(a, b, v)| {
                prop_assert!((10..20).contains(&a), "{a}");
                prop_assert_eq!(b, 3);
                prop_assert!((2..5).contains(&v.len()), "{v:?}");
                prop_assert!(v.iter().all(|x| (64..96).contains(x)), "{v:?}");
                Ok(())
            },
        );
        // The extreme draws land on the range's ends, and the map is monotone.
        let mut last = (0, 0, 0);
        for raw in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let mut d = Draw { rng: None, tape: vec![raw; 3], pos: 0 };
            let got = (d.range(10u64..20), d.range(0usize..usize::MAX), d.any::<u8>());
            assert!((10..20).contains(&got.0) && got.1 < usize::MAX, "{got:?}");
            assert_eq!(u64::from(got.2), raw >> 56);
            assert!(got >= last, "{got:?} < {last:?}");
            last = got;
        }
        assert_eq!(last, (19, usize::MAX - 1, u8::MAX));
    }

    #[test]
    fn a_failure_prints_the_same_report_twice() {
        let run = || {
            report(
                |d| d.vec(0..200, |d| d.any::<u8>()),
                |v| {
                    prop_assert!(!v.contains(&7), "found a 7");
                    Ok(())
                },
            )
        };
        let first = run();
        assert_eq!(first, run());
        let head = first.lines().take(3).collect::<Vec<_>>();
        assert!(head[0].starts_with("property report failed at case "), "{first}");
        assert!(head[0].contains("(seed: DetRng::derive("), "{first}");
        assert!(head[1].starts_with("  input (shrunk in "), "{first}");
        assert_eq!((shrunk(&first), head[2]), ("[7]", "  found a 7"), "{first}");
    }
}
