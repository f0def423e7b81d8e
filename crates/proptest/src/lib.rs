//! Offline shim for the subset of the `proptest` crate API that the
//! netclust test-suites use.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a dependency-free property-testing harness with the same
//! surface: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! `prop_assert*`/`prop_assume!`, [`Strategy`] with `prop_map`,
//! [`prelude::any`], [`prop_oneof!`], [`strategy::Just`], numeric-range and
//! tuple strategies, a regex-lite string strategy, and
//! [`collection::{vec, btree_map, btree_set}`](collection).
//!
//! Differences from upstream: no shrinking (failures report the generated
//! inputs' debug representation where available, but are not minimized) and
//! `prop_assume!` skips the case rather than re-drawing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{Just, Strategy};
pub use test_runner::{ProptestConfig, TestRng};

/// Everything a property-test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
    pub use crate::{prop_oneof, proptest};
}

/// Defines property-test functions: each `fn name(arg in strategy, ..)`
/// becomes a `#[test]` running the body over `ProptestConfig::cases`
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal: expands one property function at a time (tt-muncher).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "proptest '{}' failed at case {}/{}:\n{}",
                        stringify!($name), __case + 1, __cfg.cases, __msg
                    );
                }
            }
        }
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&($left), &($right));
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&($left), &($right));
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&($left), &($right));
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&($left), &($right));
        $crate::prop_assert!(*l != *r, $($fmt)*);
    }};
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Chooses uniformly among several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Union::arm($strat)),+
        ])
    };
}
