//! Counter sets declared once: [`counters!`](crate::counters!) derives a
//! set's field-wise `merge` (adding shards, queue pairs or tenants) and
//! `delta` (`later - earlier` over an interval, as interval DLWA needs)
//! from the [`Counter`] rule of each field.

/// How one field of a counter set combines across snapshots.
///
/// `u64` sums on merge and saturates at zero on delta. A counter set
/// declared with [`counters!`](crate::counters!) is itself a `Counter`,
/// so sets nest. A field that is not a count implements the trait with
/// its own rule (a health state merges as the worse of two views).
pub trait Counter: Copy {
    /// The combined view of `self` and `other`.
    fn merge(&self, other: &Self) -> Self;
    /// What `self` holds beyond `earlier`.
    fn delta(&self, earlier: &Self) -> Self;
}

impl Counter for u64 {
    #[inline]
    fn merge(&self, other: &u64) -> u64 {
        self + other
    }

    #[inline]
    fn delta(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }
}

/// Declares a counter set once and derives its rules from the
/// declaration.
///
/// The struct is declared as written (attributes, docs, field order)
/// with `#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]` added.
/// The macro generates inherent `merge` and `delta`, each applying
/// [`Counter`] field by field, and the `Counter` impl that lets the set
/// be a field of another set.
///
/// An optional trailing `atomic struct Twin;` declares a module-private
/// twin: one `AtomicU64` per field, same names and order, with
/// `#[derive(Debug, Default)]` and a `snapshot()` that loads every field
/// `Relaxed` into the plain set. Use it where the counts are bumped
/// through `&self` on a shared data path (`fetch_add(n, Relaxed)`; they
/// publish no other data). Every field of a set with a twin is a `u64`.
#[macro_export]
macro_rules! counters {
    // The twin has arms of its own: `macro_rules` cannot repeat the
    // field list inside the optional `atomic struct` clause.
    (@twin [] $name:ident { $($field:ident)* }) => {};
    (@twin [$(#[$ameta:meta])* $twin:ident] $name:ident { $($field:ident)* }) => {
        $(#[$ameta])*
        #[derive(Debug, Default)]
        struct $twin {
            $( $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $twin {
            /// Loads every counter (`Relaxed`: statistics only).
            fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
        $( $(#[$ameta:meta])* atomic struct $twin:ident; )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $name {
            /// Field-wise merge with another snapshot by each field's
            /// `Counter` rule: counts sum (aggregating shards, queue
            /// pairs or tenants).
            pub fn merge(&self, other: &$name) -> $name {
                $name { $( $field: $crate::Counter::merge(&self.$field, &other.$field), )* }
            }

            /// Field-wise difference `self - earlier` by each field's
            /// `Counter` rule: counts saturate at zero (interval
            /// readouts such as interval DLWA).
            pub fn delta(&self, earlier: &$name) -> $name {
                $name { $( $field: $crate::Counter::delta(&self.$field, &earlier.$field), )* }
            }
        }

        impl $crate::Counter for $name {
            fn merge(&self, other: &$name) -> $name {
                $name::merge(self, other)
            }

            fn delta(&self, earlier: &$name) -> $name {
                $name::delta(self, earlier)
            }
        }

        $crate::counters!(@twin [$( $(#[$ameta])* $twin )?] $name { $($field)* });
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;

    use super::Counter;

    /// A level, not a count: merges as the worse, keeps the later.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
    enum Level {
        #[default]
        Low,
        High,
    }

    impl Counter for Level {
        fn merge(&self, other: &Level) -> Level {
            (*self).max(*other)
        }

        fn delta(&self, _earlier: &Level) -> Level {
            *self
        }
    }

    crate::counters! { struct Inner { level: Level, errors: u64 } }
    crate::counters! { struct Outer { ops: u64, inner: Inner } }
    crate::counters! { struct Flat { ops: u64, bytes: u64 } atomic struct FlatTwin; }

    #[test]
    fn counters_sum_saturate_nest_and_snapshot() {
        let set = |ops, level, errors| Outer { ops, inner: Inner { level, errors } };
        let (a, b) = (set(10, Level::High, 1), set(3, Level::Low, 5));
        assert_eq!((a.merge(&b), b.merge(&a)), (set(13, Level::High, 6), set(13, Level::High, 6)));
        assert_eq!((a.delta(&b), b.delta(&a)), (set(7, Level::High, 0), set(0, Level::Low, 4)));
        assert_eq!(Counter::delta(&a, &b), a.delta(&b), "the trait applies the same rule");

        let live = FlatTwin::default();
        live.ops.fetch_add(2, Relaxed);
        live.bytes.fetch_add(4096, Relaxed);
        live.ops.fetch_add(1, Relaxed);
        assert_eq!(live.snapshot(), Flat { ops: 3, bytes: 4096 });
        assert_eq!(format!("{live:?}"), "FlatTwin { ops: 3, bytes: 4096 }");
    }
}
