//! A minimal shrinking property-test harness.
//!
//! The [`property!`] macro declares `#[test]` functions whose arguments
//! are drawn from [`Gen`] generators. On failure the harness:
//!
//! 1. captures the panic,
//! 2. greedily **shrinks** the failing input (integers toward the range
//!    start, vectors by removing chunks/elements, then shrinking
//!    elements),
//! 3. reports the minimal failing input together with the seed and case
//!    index needed to replay it.
//!
//! Replay a failure deterministically with environment variables:
//!
//! ```text
//! DOMA_PROP_SEED=0x1234 DOMA_PROP_CASE=17 cargo test -p <crate> <test_name>
//! ```
//!
//! `DOMA_PROP_CASES` overrides the number of cases (default 96);
//! `DOMA_PROP_SEED` rebases the whole deterministic case sequence. The
//! default seed is fixed, so CI runs are reproducible by construction.

use crate::rng::{splitmix64, Rng, TestRng};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A value generator with optional shrinking.
///
/// `shrink` returns *candidate simplifications* of a failing value,
/// simplest first; the harness keeps any candidate that still fails and
/// recurses.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `v` (may be empty).
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(v)
    }
}

impl<G: Gen + ?Sized> Gen for Box<G> {
    type Value = G::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(v)
    }
}

/// Uniform values from a half-open range, shrinking toward the start.
pub fn range<T>(r: Range<T>) -> RangeGen<T> {
    RangeGen { r }
}

/// See [`range`].
#[derive(Debug, Clone)]
pub struct RangeGen<T> {
    r: Range<T>,
}

macro_rules! impl_int_range_gen {
    ($($t:ty),*) => {$(
        impl Gen for RangeGen<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.r.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                // Classic quickcheck ladder: the range start, then values
                // halving the distance to `v` — simplest first.
                let lo = self.r.start;
                let mut out = Vec::new();
                let mut c = lo;
                while c != *v {
                    out.push(c);
                    let gap = (*v as i128 - c as i128) / 2;
                    if gap == 0 {
                        break;
                    }
                    c = (*v as i128 - gap) as $t;
                }
                out
            }
        }
    )*};
}

impl_int_range_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Gen for RangeGen<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.r.clone())
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        let lo = self.r.start;
        let mut out = Vec::new();
        if (*v - lo).abs() > 1e-9 {
            out.push(lo);
            out.push(lo + (*v - lo) / 2.0);
        }
        out
    }
}

/// Uniform booleans; `true` shrinks to `false`.
pub fn bools() -> BoolGen {
    BoolGen
}

/// See [`bools`].
#[derive(Debug, Clone)]
pub struct BoolGen;

impl Gen for BoolGen {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vectors of `elem` values with length drawn from `len` (half-open).
///
/// Shrinking removes the back/front half, then single elements, then
/// shrinks individual elements — the workhorse for minimizing failing
/// schedules and operation sequences.
pub fn vec_in<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    VecGen { elem, len }
}

/// See [`vec_in`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let n = if self.len.start + 1 >= self.len.end {
            self.len.start
        } else {
            rng.gen_range(self.len.clone())
        };
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let min = self.len.start;
        let n = v.len();
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        // Structural shrinks: empty, halves, drop one element.
        if n > min {
            if min == 0 && n > 1 {
                out.push(Vec::new());
            }
            if n >= 2 && n / 2 >= min {
                out.push(v[..n / 2].to_vec());
                out.push(v[n - n / 2..].to_vec());
            }
            for i in 0..n.min(24) {
                let mut shorter = v.clone();
                shorter.remove(i);
                if shorter.len() >= min {
                    out.push(shorter);
                }
            }
        }
        // Element-wise shrinks (bounded so candidate lists stay small).
        for i in 0..n.min(16) {
            for cand in self.elem.shrink(&v[i]).into_iter().take(3) {
                let mut replaced = v.clone();
                replaced[i] = cand;
                out.push(replaced);
            }
        }
        out
    }
}

/// Maps generated values through `f`. Shrinking is lost (the mapping is
/// not invertible); use [`iso`] when an inverse exists.
pub fn map<G: Gen, T, F>(gen: G, f: F) -> MapGen<G, F>
where
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    MapGen { gen, f }
}

/// See [`map`].
pub struct MapGen<G, F> {
    gen: G,
    f: F,
}

impl<G: Gen, T, F> Gen for MapGen<G, F>
where
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.gen.generate(rng))
    }
}

/// Maps through `to` while keeping shrinking alive via the inverse
/// `from` — e.g. `Schedule` ⇄ `Vec<Request>`.
pub fn iso<G: Gen, T, To, From>(gen: G, to: To, from: From) -> IsoGen<G, To, From>
where
    T: Clone + Debug,
    To: Fn(G::Value) -> T,
    From: Fn(&T) -> G::Value,
{
    IsoGen { gen, to, from }
}

/// See [`iso`].
pub struct IsoGen<G, To, From> {
    gen: G,
    to: To,
    from: From,
}

impl<G: Gen, T, To, From> Gen for IsoGen<G, To, From>
where
    T: Clone + Debug,
    To: Fn(G::Value) -> T,
    From: Fn(&T) -> G::Value,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.to)(self.gen.generate(rng))
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        self.gen
            .shrink(&(self.from)(v))
            .into_iter()
            .map(&self.to)
            .collect()
    }
}

/// Joins two generators into a pair generator, shrinking one component
/// at a time. Compose with [`map`]/[`iso`] to build derived values from
/// two independent draws.
pub fn pair<A: Gen, B: Gen>(a: A, b: B) -> PairGen<A, B> {
    PairGen { a, b }
}

/// See [`pair`].
pub struct PairGen<A, B> {
    a: A,
    b: B,
}

impl<A: Gen, B: Gen> Gen for PairGen<A, B> {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.a.generate(rng), self.b.generate(rng))
    }
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .a
            .shrink(&v.0)
            .into_iter()
            .map(|a| (a, v.1.clone()))
            .collect();
        out.extend(self.b.shrink(&v.1).into_iter().map(|b| (v.0.clone(), b)));
        out
    }
}

// ---------------------------------------------------------------------------
// Tuples of generators (one per property argument)
// ---------------------------------------------------------------------------

/// A tuple of generators, one per property argument. Implemented for
/// arities 1–6; used internally by [`property!`].
pub trait GenTuple {
    /// The tuple of generated values.
    type Values: Clone + Debug;
    /// Number of arguments.
    const ARITY: usize;
    /// Draws one value per generator.
    fn generate(&self, rng: &mut TestRng) -> Self::Values;
    /// Shrink candidates varying only argument `which`.
    fn shrink_one(&self, vs: &Self::Values, which: usize) -> Vec<Self::Values>;
}

macro_rules! impl_gen_tuple {
    ($n:expr; $(($G:ident, $v:ident, $i:tt)),+) => {
        impl<$($G: Gen),+> GenTuple for ($($G,)+) {
            type Values = ($($G::Value,)+);
            const ARITY: usize = $n;

            fn generate(&self, rng: &mut TestRng) -> Self::Values {
                ($(self.$i.generate(rng),)+)
            }

            fn shrink_one(&self, vs: &Self::Values, which: usize) -> Vec<Self::Values> {
                let mut out = Vec::new();
                $(
                    if which == $i {
                        for cand in self.$i.shrink(&vs.$i) {
                            let mut next = vs.clone();
                            next.$i = cand;
                            out.push(next);
                        }
                    }
                )+
                out
            }
        }
    };
}

impl_gen_tuple!(1; (G0, v0, 0));
impl_gen_tuple!(2; (G0, v0, 0), (G1, v1, 1));
impl_gen_tuple!(3; (G0, v0, 0), (G1, v1, 1), (G2, v2, 2));
impl_gen_tuple!(4; (G0, v0, 0), (G1, v1, 1), (G2, v2, 2), (G3, v3, 3));
impl_gen_tuple!(5; (G0, v0, 0), (G1, v1, 1), (G2, v2, 2), (G3, v3, 3), (G4, v4, 4));
impl_gen_tuple!(6; (G0, v0, 0), (G1, v1, 1), (G2, v2, 2), (G3, v3, 3), (G4, v4, 4), (G5, v5, 5));

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Panic payload of [`prop_assume!`]: the case is discarded, not failed.
pub struct Discard;

/// Runner configuration; read from the environment by default.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required (default 96, `DOMA_PROP_CASES`).
    pub cases: u32,
    /// Base seed of the deterministic case sequence (`DOMA_PROP_SEED`,
    /// decimal or `0x`-hex). Fixed by default so runs are reproducible.
    pub seed: u64,
    /// Replay only this case index (`DOMA_PROP_CASE`).
    pub only_case: Option<u64>,
    /// Shrink-attempt budget per failure.
    pub max_shrink_steps: u32,
}

impl Config {
    /// The default configuration, with environment overrides applied.
    pub fn from_env() -> Self {
        use crate::replay::env_u64;
        let cases = env_u64("DOMA_PROP_CASES").map(|n| n as u32).unwrap_or(96);
        let seed = env_u64("DOMA_PROP_SEED").unwrap_or(0xD0AA_5EED_0000_0001);
        let only_case = env_u64("DOMA_PROP_CASE");
        Config {
            cases,
            seed,
            only_case,
            max_shrink_steps: 2000,
        }
    }

    /// Overrides the case count (used by `#[cases(n)]` in [`property!`]).
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }
}

enum CaseOutcome {
    Pass,
    Discarded,
    Fail(String),
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_case<V, F: FnMut(V)>(body: &mut F, vals: V) -> CaseOutcome {
    match panic::catch_unwind(AssertUnwindSafe(|| body(vals))) {
        Ok(()) => CaseOutcome::Pass,
        Err(payload) => {
            if payload.downcast_ref::<Discard>().is_some() {
                CaseOutcome::Discarded
            } else {
                CaseOutcome::Fail(payload_to_string(payload))
            }
        }
    }
}

/// The seed of case `i` under base seed `base` — stateless, so any case
/// can be replayed in isolation.
fn case_seed(base: u64, i: u64) -> u64 {
    let mut s = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

// Property runs swap in a silent panic hook (shrinking re-runs the body
// against dozens of failing inputs; per-case backtraces would drown the
// report). The hook is process-global, so runs serialize on this lock.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Runs a property with the default (environment) configuration.
pub fn check<G: GenTuple, F: FnMut(G::Values)>(name: &str, gens: G, body: F) {
    check_with(Config::from_env(), name, gens, body)
}

/// Runs a property under an explicit configuration. Panics with a replay
/// report on failure.
pub fn check_with<G: GenTuple, F: FnMut(G::Values)>(
    config: Config,
    name: &str,
    gens: G,
    mut body: F,
) {
    let guard = HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let verdict = drive(&config, name, &gens, &mut body);

    panic::set_hook(saved_hook);
    drop(guard);

    if let Some(report) = verdict {
        panic!("property `{name}` failed\n{report}");
    }
}

/// Executes cases and shrinks the first failure; returns a report if the
/// property is falsified. Runs under the silent panic hook.
fn drive<G: GenTuple, F: FnMut(G::Values)>(
    config: &Config,
    name: &str,
    gens: &G,
    body: &mut F,
) -> Option<String> {
    let max_discards = config.cases as u64 * 64;
    let mut discards = 0u64;
    let mut passed = 0u32;
    let mut case_index = 0u64;

    loop {
        if let Some(only) = config.only_case {
            case_index = only;
        } else if passed >= config.cases {
            return None;
        }
        let seed = case_seed(config.seed, case_index);
        let vals = gens.generate(&mut TestRng::seed_from_u64(seed));
        match run_case(body, vals.clone()) {
            CaseOutcome::Pass => {
                if config.only_case.is_some() {
                    return None;
                }
                passed += 1;
            }
            CaseOutcome::Discarded => {
                if config.only_case.is_some() {
                    return None;
                }
                discards += 1;
                if discards > max_discards {
                    return Some(format!(
                        "gave up after {discards} discarded cases (prop_assume! too \
                         restrictive); {passed}/{} cases passed",
                        config.cases
                    ));
                }
            }
            CaseOutcome::Fail(first_msg) => {
                let (minimal, msg, steps) =
                    shrink_failure(gens, body, vals, first_msg, config.max_shrink_steps);
                return Some(format!(
                    "minimal failing input (after {steps} shrink steps):\n\
                     {minimal:#?}\n\
                     assertion: {msg}\n\
                     replay: DOMA_PROP_SEED={seed:#x} DOMA_PROP_CASE={case_index} \
                     cargo test {name}",
                    seed = config.seed,
                ));
            }
        }
        case_index += 1;
    }
}

fn shrink_failure<G: GenTuple, F: FnMut(G::Values)>(
    gens: &G,
    body: &mut F,
    mut current: G::Values,
    mut current_msg: String,
    budget: u32,
) -> (G::Values, String, u32) {
    let mut steps = 0u32;
    'progress: loop {
        for which in 0..G::ARITY {
            for cand in gens.shrink_one(&current, which) {
                if steps >= budget {
                    break 'progress;
                }
                steps += 1;
                if let CaseOutcome::Fail(msg) = run_case(body, cand.clone()) {
                    current = cand;
                    current_msg = msg;
                    continue 'progress;
                }
            }
        }
        break;
    }
    (current, current_msg, steps)
}

/// Discards the current case unless `cond` holds (the property-harness
/// analogue of `proptest::prop_assume!`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            ::std::panic::panic_any($crate::property::Discard);
        }
    };
}

/// Declares shrinking property tests.
///
/// ```ignore
/// doma_testkit::property! {
///     /// Reversing twice is the identity.
///     fn reverse_involutive(xs in prop::vec_in(prop::range(0u32..100), 0..20)) {
///         let mut ys = xs.clone();
///         ys.reverse();
///         ys.reverse();
///         assert_eq!(xs, ys);
///     }
/// }
/// ```
///
/// Prefix a property with `#[cases(N)]` (before any doc comment) to
/// override the case count.
#[macro_export]
macro_rules! property {
    () => {};
    (
        #[cases($n:expr)]
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::property::check_with(
                $crate::property::Config::from_env().with_cases($n),
                stringify!($name),
                ($($gen,)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::property! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::property::check(
                stringify!($name),
                ($($gen,)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::property! { $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check(
            "commutative",
            (range(0u32..100), range(0u32..100)),
            |(a, b)| {
                assert_eq!(a + b, b + a);
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // "all values are < 10" is false; the minimal counterexample is 10.
        let result = panic::catch_unwind(|| {
            check_with(
                Config {
                    cases: 200,
                    seed: 1,
                    only_case: None,
                    max_shrink_steps: 2000,
                },
                "lt_ten",
                (range(0u32..1000),),
                |(v,)| assert!(v < 10, "{v} >= 10"),
            );
        });
        let msg = payload_to_string(result.unwrap_err());
        assert!(msg.contains("lt_ten"), "{msg}");
        assert!(
            msg.contains("10,"),
            "expected the shrunk value 10 in:\n{msg}"
        );
        assert!(msg.contains("DOMA_PROP_SEED"), "{msg}");
    }

    #[test]
    fn vec_shrinking_minimizes_length() {
        // "no vector contains a 7" — minimal counterexample is [7].
        let result = panic::catch_unwind(|| {
            check_with(
                Config {
                    cases: 500,
                    seed: 3,
                    only_case: None,
                    max_shrink_steps: 5000,
                },
                "no_sevens",
                (vec_in(range(0u32..8), 0..30),),
                |(xs,)| assert!(!xs.contains(&7), "found 7 in {xs:?}"),
            );
        });
        let msg = payload_to_string(result.unwrap_err());
        // The minimal input is the 1-element vector [7].
        assert!(
            msg.contains("[\n        7,\n    ]") || msg.contains("[7]"),
            "expected minimal [7] in:\n{msg}"
        );
    }

    #[test]
    fn discards_do_not_count_as_failures() {
        let mut even_seen = 0u32;
        check_with(
            Config {
                cases: 50,
                seed: 5,
                only_case: None,
                max_shrink_steps: 100,
            },
            "evens_only",
            (range(0u32..100),),
            |(v,)| {
                prop_assume!(v % 2 == 0);
                even_seen += 1;
                assert!(v % 2 == 0);
            },
        );
        assert!(even_seen >= 50);
    }

    #[test]
    fn iso_shrinks_through_the_mapping() {
        #[derive(Clone, Debug, PartialEq)]
        struct Wrapper(Vec<u32>);
        let gen = iso(vec_in(range(0u32..5), 0..20), Wrapper, |w: &Wrapper| {
            w.0.clone()
        });
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            check_with(
                Config {
                    cases: 300,
                    seed: 7,
                    only_case: None,
                    max_shrink_steps: 5000,
                },
                "short_wrappers",
                (gen,),
                |(w,)| assert!(w.0.len() < 4, "too long: {w:?}"),
            );
        }));
        let msg = payload_to_string(result.unwrap_err());
        // Shrinks to exactly the boundary length 4.
        assert!(msg.contains("Wrapper"), "{msg}");
    }

    property! {
        /// The macro itself: multiple properties in one invocation, with
        /// doc comments and trailing commas.
        fn macro_smoke(a in range(0i64..50), flag in bools(),) {
            let doubled = a * 2;
            assert_eq!(doubled % 2, 0);
            let _ = flag;
        }

        #[cases(16)]
        fn macro_with_cases(xs in vec_in(range(0u8..10), 0..5)) {
            assert!(xs.len() < 5);
        }
    }
}
