//! Counter sets declared once.
//!
//! A run reports several structs of `u64` counters (protocol, resource,
//! recovery and fault stats). Each one is declared with
//! [`counter_set!`](crate::counter_set!), which names every field's merge
//! rule next to the field. From that one declaration the macro derives the
//! struct, its `merge`, and a [`CounterSet`] impl, so that reporting and
//! aggregation code can handle every set without naming its fields.

/// A struct of `u64` counters declared with
/// [`counter_set!`](crate::counter_set!).
pub trait CounterSet {
    /// Calls `f(name, value)` for every field, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64));
    /// Returns a copy with `f` applied to every field.
    fn map(&self, f: impl Fn(u64) -> u64) -> Self;
    /// Folds `other` in, field by field, by each field's rule.
    fn merge(&mut self, other: &Self);
}

/// The `sum` merge rule: event counts add up.
pub fn sum(a: u64, b: u64) -> u64 {
    a + b
}

/// The `max` merge rule: a high-water mark keeps the larger value.
pub fn max(a: u64, b: u64) -> u64 {
    a.max(b)
}

/// Declares a struct of `u64` counters, each field tagged with its merge
/// rule (`sum` or `max`, the functions of the same name in
/// [`crate::counters`]).
///
/// Attributes and derives are passed through. The macro adds an inherent
/// `merge` and a [`CounterSet`] impl whose visitor walks the fields in
/// declaration order.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident: u64 => $rule:ident,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: u64,
            )*
        }

        impl $name {
            /// Folds `other` in field-wise: `sum` fields add, `max` fields
            /// keep the larger value.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field = $crate::counters::$rule(self.$field, other.$field);)*
            }
        }

        impl $crate::counters::CounterSet for $name {
            fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
                $(f(stringify!($field), self.$field);)*
            }

            fn map(&self, f: impl Fn(u64) -> u64) -> Self {
                $name {
                    $($field: f(self.$field),)*
                }
            }

            fn merge(&mut self, other: &Self) {
                $name::merge(self, other)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::CounterSet;

    crate::counter_set! {
        struct Sample {
            first: u64 => sum,
            peak: u64 => max,
            last: u64 => sum,
        }
    }

    #[test]
    fn merge_follows_each_rule_and_visit_keeps_declaration_order() {
        let mut a = Sample {
            first: 1,
            peak: 9,
            last: 2,
        };
        CounterSet::merge(
            &mut a,
            &Sample {
                first: 10,
                peak: 4,
                last: 20,
            },
        );
        let mut seen = Vec::new();
        a.map(|v| v * 2)
            .visit(&mut |name, value| seen.push((name, value)));
        assert_eq!(seen, [("first", 22), ("peak", 18), ("last", 44)]);
    }
}
