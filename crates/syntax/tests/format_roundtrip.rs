//! Formatter round-trip properties: formatting is a fixed point under
//! parse∘format, for the paper's figure queries and random expressions.

use lmql_syntax::{format_query, parse_query};

const SOURCES: &[&str] = &[
    // Fig. 1a
    "beam(n=3)\n    \"Q: [JOKE]\\n\"\n    \"A: [PUNCHLINE]\\n\"\nfrom \"gpt2-medium\"\nwhere stops_at(JOKE, \"?\") and len(words(JOKE)) < 20\n",
    // Fig. 1b
    "argmax\n    things = []\n    for i in range(2):\n        \"- [THING]\\n\"\n        things.append(THING)\n    \"The most important of these is [ITEM].\"\nfrom \"m\"\nwhere THING in [\"passport\", \"keys\"]\ndistribute ITEM in things\n",
    // ReAct-ish
    "import wiki\nsample(n=2, temperature=0.7)\n    for i in range(10):\n        \"[MODE]:\"\n        if MODE == \"Tho\":\n            \"[THOUGHT]\"\n        elif MODE == \"Act\":\n            r = wiki.search(S[:-1])\n            \"Obs {i}: {r}\\n\"\n        else:\n            break\nfrom \"m\"\nwhere MODE in [\"Tho\", \"Act\"]\n",
    // while + recalls
    "argmax\n    n = 0\n    while n < 5:\n        n = n + 1\n    \"n = {n + 1}\"\nfrom \"m\"\n",
];

#[test]
fn figure_queries_are_format_fixed_points() {
    for src in SOURCES {
        let q1 = parse_query(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        let f1 = format_query(&q1);
        let q2 = parse_query(&f1).unwrap_or_else(|e| panic!("formatted failed: {e}\n{f1}"));
        let f2 = format_query(&q2);
        assert_eq!(f1, f2, "format not idempotent for {src:?}");
    }
}

mod props {
    use lmql_syntax::{format_expr, parse_expr};
    use proptest::prelude::*;

    fn expr_strategy() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("x".to_owned()),
            Just("Y2".to_owned()),
            (0i64..100).prop_map(|n| n.to_string()),
            Just("\"s\"".to_owned()),
            Just("True".to_owned()),
            Just("None".to_owned()),
        ];
        leaf.prop_recursive(4, 48, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} < {b})")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
                inner.clone().prop_map(|a| format!("(not {a})")),
                inner.clone().prop_map(|a| format!("(-{a})")),
                inner.clone().prop_map(|a| format!("len({a})")),
                (inner.clone(), inner).prop_map(|(a, b)| format!("[{a}, {b}]")),
            ]
        })
    }

    proptest! {
        /// format ∘ parse is idempotent on random expressions, and the
        /// formatted form parses back to the same formatted form (i.e. the
        /// formatter's minimal parentheses preserve structure).
        #[test]
        fn random_exprs_roundtrip(src in expr_strategy()) {
            let e1 = parse_expr(&src).unwrap();
            let f1 = format_expr(&e1);
            let e2 = parse_expr(&f1).unwrap_or_else(|err| panic!("{f1:?}: {err}"));
            let f2 = format_expr(&e2);
            prop_assert_eq!(&f1, &f2, "not idempotent for {}", src);
        }
    }
}
