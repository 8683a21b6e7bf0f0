//! Property-based tests for the dataset crate.

use lmql_datasets::calculator;
use lmql_datasets::date_understanding::Date;
use lmql_datasets::{
    date_understanding, gsm8k, hotpot, odd_one_out, GPT_35_PROFILE, GPT_J_PROFILE,
};
use proptest::prelude::*;

/// A random arithmetic expression tree, returned with its exact value
/// (built only from subtrees whose evaluation stays exact in i64).
fn expr_strategy() -> impl Strategy<Value = (String, i64)> {
    let leaf = (0i64..200).prop_map(|n| (n.to_string(), n));
    leaf.prop_recursive(4, 32, 2, |inner| {
        (inner.clone(), inner, 0u8..3).prop_map(|((sa, va), (sb, vb), op)| match op {
            0 => (format!("({sa}+{sb})"), va + vb),
            1 => (format!("({sa}-{sb})"), va - vb),
            _ => (format!("({sa}*{sb})"), va * vb),
        })
    })
}

proptest! {
    /// The calculator agrees with direct evaluation on random expressions.
    #[test]
    fn calculator_matches_oracle((expr, value) in expr_strategy()) {
        prop_assert_eq!(calculator::run(&expr).unwrap(), value);
        // With the Fig. 13 trailing `=` too.
        prop_assert_eq!(calculator::run(&format!("{expr}=")).unwrap(), value);
    }

    /// Whitespace around operators and parentheses never changes a
    /// calculator result (splitting digit runs would change the tokens,
    /// so spaces only go next to non-digits).
    #[test]
    fn calculator_ignores_spacing((expr, value) in expr_strategy(), seed in 0u64..1000) {
        let mut spaced = String::new();
        for (i, c) in expr.chars().enumerate() {
            if !c.is_ascii_digit()
                && (seed.wrapping_mul(31).wrapping_add(i as u64)) % 3 == 0
            {
                spaced.push(' ');
                spaced.push(c);
                spaced.push(' ');
            } else {
                spaced.push(c);
            }
        }
        prop_assert_eq!(calculator::run(&spaced).unwrap(), value);
    }

    /// Date arithmetic is an action of the integers: adding then
    /// subtracting any day count round-trips.
    #[test]
    fn date_plus_days_roundtrips(
        year in 2000i32..2030,
        month in 1u32..=12,
        day in 1u32..=28,
        delta in -1000i32..1000,
    ) {
        let d = Date::new(year, month, day);
        prop_assert_eq!(d.plus_days(delta).plus_days(-delta), d);
    }

    /// Generators are deterministic in their seed and produce consistent
    /// instances at any size.
    #[test]
    fn generators_deterministic(n in 1usize..30, seed in 0u64..50) {
        prop_assert_eq!(
            odd_one_out::generate(n, seed, &GPT_J_PROFILE),
            odd_one_out::generate(n, seed, &GPT_J_PROFILE)
        );
        prop_assert_eq!(
            gsm8k::generate(n, seed, &GPT_35_PROFILE),
            gsm8k::generate(n, seed, &GPT_35_PROFILE)
        );
        prop_assert_eq!(
            hotpot::generate(n, seed, &GPT_J_PROFILE),
            hotpot::generate(n, seed, &GPT_J_PROFILE)
        );
        prop_assert_eq!(
            date_understanding::generate(n, seed, &GPT_J_PROFILE),
            date_understanding::generate(n, seed, &GPT_J_PROFILE)
        );
    }

    /// Every generated GSM8K expression evaluates to its recorded value,
    /// and the final expression's value is the instance answer.
    #[test]
    fn gsm8k_expressions_consistent(n in 1usize..20, seed in 0u64..50) {
        for inst in gsm8k::generate(n, seed, &GPT_J_PROFILE) {
            for (expr, v) in &inst.expressions {
                prop_assert_eq!(calculator::run(expr).unwrap(), *v);
            }
            prop_assert_eq!(inst.expressions.last().unwrap().1, inst.answer);
        }
    }

    /// Odd One Out digressions sit on char boundaries inside the
    /// reasoning and never conclude the gold answer.
    #[test]
    fn ooo_digressions_well_formed(n in 1usize..40, seed in 0u64..50) {
        for inst in odd_one_out::generate(n, seed, &GPT_J_PROFILE) {
            if let Some(d) = &inst.digression {
                prop_assert!(inst.reasoning.is_char_boundary(d.at));
                prop_assert!(d.at < inst.reasoning.len());
                prop_assert!(d.text.starts_with('\n'));
                prop_assert!(d.derailed_answer != inst.gold);
                prop_assert!(inst.options.contains(&d.derailed_answer));
            }
        }
    }
}
