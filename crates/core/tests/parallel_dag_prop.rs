//! Property-based soundness for the hole-dependency analyzer
//! (DESIGN.md §14), gated behind `--features slow-tests`: the one suite
//! still too slow for the tier-1 run.
//!
//! Random straight-line bodies are generated with known dependency
//! structure — random `{recall}` edges and random `where` conjuncts
//! drawn from the eager (completion-safe) subset plus deliberately
//! unsafe shapes — and the analyzer's plan is checked against a
//! reference model: every dependency the construction implies must
//! appear in the plan (`plan_holes` may over-approximate, never
//! under-approximate), groups must be a partition with no internal
//! edges, and a sampled subset of cases is run both ways to confirm
//! byte-identity end to end.

#![cfg(feature = "slow-tests")]

use lmql::{compile_source, plan_holes, Runtime};
use lmql_lm::corpus;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Per-hole `where` conjunct menu. `Safe` shapes are in the analyzer's
/// completion-safe subset; `Unsafe*` shapes must serialize the hole
/// against everything after it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Conjunct {
    None,
    StopsAt,
    NotIn,
    LenUpper,
    UnsafeLenLower,
    UnsafeEq,
}

impl Conjunct {
    fn is_unsafe(self) -> bool {
        matches!(self, Conjunct::UnsafeLenLower | Conjunct::UnsafeEq)
    }

    fn render(self, i: usize) -> Option<String> {
        match self {
            Conjunct::None => None,
            Conjunct::StopsAt => Some(format!("stops_at(H{i}, \"\\n\")")),
            Conjunct::NotIn => Some(format!("not \"zq\" in H{i}")),
            Conjunct::LenUpper => Some(format!("len(H{i}) < 40")),
            Conjunct::UnsafeLenLower => Some(format!("len(H{i}) > 0")),
            Conjunct::UnsafeEq => Some(format!("H{i} != \"never\"")),
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    /// `recalls[i]` = earlier hole indices spliced into hole `i`'s
    /// prompt segment via `{Hj}`.
    recalls: Vec<Vec<usize>>,
    conjuncts: Vec<Conjunct>,
}

impl Case {
    fn n(&self) -> usize {
        self.conjuncts.len()
    }

    fn source(&self) -> String {
        let mut body = String::new();
        for (i, rec) in self.recalls.iter().enumerate() {
            body.push_str("    \"");
            for j in rec {
                body.push_str(&format!("r{{H{j}}} "));
            }
            body.push_str(&format!("L{i}:[H{i}]\\n\"\n"));
        }
        let conjuncts: Vec<String> = self
            .conjuncts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.render(i))
            .collect();
        let mut src = format!("argmax\n{body}from \"m\"\n");
        if !conjuncts.is_empty() {
            src.push_str(&format!("where {}\n", conjuncts.join(" and ")));
        }
        src
    }

    /// The dependencies the construction implies. Transitively closed so
    /// the subset check below is order-insensitive.
    fn reference_deps(&self) -> Vec<BTreeSet<usize>> {
        let n = self.n();
        let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, rec) in self.recalls.iter().enumerate() {
            // Recalled text is part of every context from hole i onward.
            for j in rec {
                for d in deps.iter_mut().skip(i) {
                    d.insert(*j);
                }
            }
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            // An unsafe conjunct on hole i serializes everything after.
            if c.is_unsafe() {
                for d in deps.iter_mut().skip(i + 1) {
                    d.insert(i);
                }
            }
        }
        deps
    }
}

fn case_strategy(max_holes: usize) -> impl Strategy<Value = Case> {
    // Unweighted union, so safe shapes are weighted by repetition: most
    // cases should parallelize somewhere, with unsafe shapes salted in.
    let conjunct = prop_oneof![
        Just(Conjunct::None),
        Just(Conjunct::StopsAt),
        Just(Conjunct::StopsAt),
        Just(Conjunct::StopsAt),
        Just(Conjunct::NotIn),
        Just(Conjunct::NotIn),
        Just(Conjunct::LenUpper),
        Just(Conjunct::LenUpper),
        Just(Conjunct::UnsafeLenLower),
        Just(Conjunct::UnsafeEq),
    ];
    (
        2..=max_holes,
        proptest::collection::vec(conjunct, max_holes),
        // recalls[i]: a bitmask over the i earlier holes.
        proptest::collection::vec(0u8..=255u8, max_holes),
    )
        .prop_map(|(n, mut conjuncts, masks)| {
            conjuncts.truncate(n);
            let recalls = masks[..n]
                .iter()
                .enumerate()
                .map(|(i, m)| (0..i).filter(|j| m >> j & 1 == 1).collect())
                .collect();
            Case { recalls, conjuncts }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The analyzer never under-approximates: every reference
    /// dependency appears in the plan, dependencies only point
    /// backwards, and groups partition the holes with no internal edge.
    #[test]
    fn analyzer_never_under_approximates(case in case_strategy(6)) {
        let source = case.source();
        let program = compile_source(&source).expect("generated source compiles");
        let plan = plan_holes(&program).expect("straight-line body plans");

        let n = case.n();
        prop_assert_eq!(plan.names().len(), n);
        for (i, name) in plan.names().iter().enumerate() {
            let want = format!("H{i}");
            prop_assert_eq!(name.as_str(), want.as_str());
        }

        // Transitive closure of the plan's direct edges, so reference
        // deps the analyzer routes through an intermediate hole still
        // count as covered.
        let mut closed: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| plan.deps_of(i).clone())
            .collect();
        for i in 0..n {
            let via: Vec<usize> = closed[i].iter().copied().collect();
            for j in via {
                prop_assert!(j < i, "dependency must point backwards");
                let inherited = closed[j].clone();
                closed[i].extend(inherited);
            }
        }

        for (i, want) in case.reference_deps().iter().enumerate() {
            for j in want {
                prop_assert!(
                    closed[i].contains(j),
                    "hole H{} must depend on H{} (plan deps {:?})\nsource:\n{}",
                    i, j, plan.deps_of(i), source
                );
            }
        }

        // Groups: a partition of [0, n) in order, with no dependency
        // edge between two members of the same group.
        let mut next = 0;
        for &(s, e) in plan.groups() {
            prop_assert_eq!(s, next);
            prop_assert!(e > s);
            next = e;
            for i in s..e {
                for j in plan.deps_of(i) {
                    prop_assert!(
                        *j < s,
                        "group [{s},{e}) contains edge H{j} -> H{i}\nsource:\n{}",
                        source
                    );
                }
            }
        }
        prop_assert_eq!(next, n);
    }

    /// A sampled subset decodes both ways: the plan's groups must not
    /// change a single produced byte or billed token.
    #[test]
    fn sampled_cases_decode_identically(case in case_strategy(4)) {
        let source = case.source();
        let make = || {
            let mut rt = Runtime::new(corpus::standard_ngram(), corpus::standard_bpe());
            rt.options_mut().max_tokens_per_hole = 12;
            rt
        };
        let par_rt = make();
        let par = par_rt.run(&source);
        let seq_rt = {
            let mut rt = make();
            rt.options_mut().parallel_holes = false;
            rt
        };
        let seq = seq_rt.run(&source);
        match (&par, &seq) {
            (Ok(p), Ok(s)) => {
                prop_assert_eq!(p.runs.len(), s.runs.len());
                for (a, b) in p.runs.iter().zip(&s.runs) {
                    prop_assert_eq!(&a.trace, &b.trace, "trace for:\n{}", source);
                    prop_assert_eq!(&a.variables, &b.variables);
                    prop_assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (p, s) => prop_assert!(false, "parallel {:?} but sequential {:?} for:\n{}", p, s, source),
        }
        let pu = par_rt.meter().snapshot();
        let su = seq_rt.meter().snapshot();
        prop_assert_eq!(pu.decoder_calls, su.decoder_calls);
        prop_assert_eq!(pu.billable_tokens, su.billable_tokens);
    }
}
