//! Integration tests for the `lmql-run` command-line tool.

use std::process::Command;

fn lmql_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lmql-run"))
}

fn write_query(name: &str, source: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmql-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

#[test]
fn runs_a_query_file_against_scripted_model() {
    let q = write_query(
        "basic.lmql",
        "argmax\n    \"Q: hi\\nA:[ANSWER]\"\nfrom \"m\"\nwhere stops_at(ANSWER, \".\")\n",
    );
    let out = lmql_run()
        .arg(&q)
        .args(["--model", "script:A:= hello there. more"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("A: hello there."), "{stdout}");
    assert!(stdout.contains("ANSWER = \" hello there.\""), "{stdout}");
    assert!(stdout.contains("model queries"), "{stdout}");
}

#[test]
fn bind_passes_query_arguments() {
    let q = write_query(
        "bind.lmql",
        "argmax\n    \"{GREETING} world:[X]\"\nfrom \"m\"\nwhere stops_at(X, \"!\")\n",
    );
    let out = lmql_run()
        .arg(&q)
        .args(["--model", "script:world:= hi!", "--bind", "GREETING=hello"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("hello world: hi!"), "{stdout}");
}

/// `--trace` prints the decoder graph and the span dump, also next to
/// `--stream` (whose live printing must not take the trace's place).
#[test]
fn trace_flag_prints_decoder_graph() {
    let q = write_query(
        "trace.lmql",
        "argmax\n    \"P:[X]\"\nfrom \"m\"\nwhere X in [\" yes\", \" no\"]\n",
    );
    for extra in [&[][..], &["--stream"]] {
        let out = lmql_run()
            .arg(&q)
            .args(["--model", "script:P:= yes", "--trace"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("--- decoder trace ---"),
            "{extra:?}: {stdout}"
        );
        assert!(stdout.contains("[X] stopped by"), "{extra:?}: {stdout}");
        assert!(stdout.contains("--- spans ---"), "{extra:?}: {stdout}");
    }
}

#[test]
fn syntax_errors_fail_with_location() {
    let q = write_query("broken.lmql", "argmax\n    \"unclosed [X\"\nfrom \"m\"\n");
    let out = lmql_run()
        .arg(&q)
        .args(["--model", "script:x=y"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unclosed"), "{stderr}");
}

#[test]
fn bad_flags_are_reported() {
    let out = lmql_run().args(["--definitely-bogus"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown argument"), "{stderr}");

    let out = lmql_run().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("missing query file"));
}

#[test]
fn ngram_model_runs_builtin_corpus_queries() {
    let q = write_query(
        "ngram.lmql",
        "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"ngram\"\nwhere stops_at(THING, \"\\n\")\n",
    );
    let out = lmql_run()
        .arg(&q)
        .args(["--model", "ngram"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("THING = "), "{stdout}");
}

const CHAOS_QUERY: &str = "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"ngram\"\nwhere stops_at(THING, \"\\n\")\n";

#[test]
fn chaos_flag_injects_absorbed_faults() {
    let q = write_query("chaos.lmql", CHAOS_QUERY);
    let clean = lmql_run().arg(&q).output().unwrap();
    assert!(clean.status.success(), "{clean:?}");
    let chaotic = lmql_run()
        .arg(&q)
        .args(["--chaos", "6", "--retries", "8", "--timeout-ms", "5000"])
        .output()
        .unwrap();
    assert!(chaotic.status.success(), "{chaotic:?}");
    let clean = String::from_utf8(clean.stdout).unwrap();
    let chaotic = String::from_utf8(chaotic.stdout).unwrap();
    let line = chaotic
        .lines()
        .find(|l| l.contains("--- chaos:"))
        .expect("chaos summary line");
    assert!(!line.contains("0 faults injected"), "{line}");
    // Everything except the chaos summary is byte-identical.
    let without_summary: String = chaotic
        .lines()
        .filter(|l| !l.contains("--- chaos:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(without_summary, clean);
}

/// The scheduler is what retries an injected fault, so every one shows
/// in the pool's `lm.*` counters: each injected error or truncation is
/// one failed attempt, counted once in `lm.faults`.
#[test]
fn chaos_faults_show_in_lm_metrics() {
    let q = write_query("chaos_metrics.lmql", CHAOS_QUERY);
    let flags = ["--chaos", "6", "--retries", "8", "--timeout-ms", "5000"];
    let stdout = stdout_of(&q, &[&flags[..], &["--metrics"]].concat());
    let counter = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("counter {name} ")))
            .unwrap_or_else(|| panic!("no {name} counter: {stdout}"))
            .parse()
            .unwrap()
    };
    // `--- chaos: N faults injected (E errors, T truncations, S latency
    // spikes) — all absorbed ---`
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("--- chaos: "))
        .expect("chaos summary line");
    let counts: Vec<u64> = summary
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let injected = counts[1] + counts[2];
    assert!(counter("lm.faults") > 0, "{stdout}");
    assert_eq!(counter("lm.faults"), injected, "{stdout}");
}

/// `--trace` is served like every other run, so the fault flags apply
/// to it: the schedulers retry the injected faults (counted in
/// `lm.faults`) and the decoder graph is the fault-free one.
#[test]
fn trace_is_served_under_fault_flags() {
    let q = write_query("trace_faults.lmql", CHAOS_QUERY);
    let clean = stdout_of(&q, &["--trace"]);
    let chaotic = stdout_of(
        &q,
        &[
            "--trace",
            "--chaos",
            "6",
            "--retries",
            "8",
            "--timeout-ms",
            "5000",
            "--metrics",
        ],
    );
    assert!(
        decoder_trace(&clean).contains("[THING] stopped by"),
        "{clean}"
    );
    assert_eq!(decoder_trace(&chaotic), decoder_trace(&clean));
    let faults: u64 = chaotic
        .lines()
        .find_map(|l| l.strip_prefix("counter lm.faults "))
        .unwrap_or_else(|| panic!("no lm.faults counter: {chaotic}"))
        .parse()
        .unwrap();
    assert!(faults > 0, "{chaotic}");
}

#[test]
fn format_flag_pretty_prints() {
    let q = write_query(
        "fmt.lmql",
        "argmax( n = 2 )\n    \"[X]\"\nfrom \"m\"\nwhere len(X)<5 and stops_at(X,\".\")\n",
    );
    let out = lmql_run().arg(&q).arg("--format").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "argmax(n=2)\n    \"[X]\"\nfrom \"m\"\nwhere len(X) < 5 and stops_at(X, \".\")\n"
    );
}

/// The `--- decoder trace ---` section of a `--trace` run's stdout, up to
/// (not including) the `--- spans ---` header.
fn decoder_trace(stdout: &str) -> &str {
    let (_, graph) = stdout
        .split_once("--- decoder trace ---\n")
        .unwrap_or_else(|| panic!("no decoder graph: {stdout}"));
    graph
        .split_once("--- spans ---\n")
        .map_or(graph, |(g, _)| g)
}

/// Runs `lmql-run` on `query` and returns its stdout, failing the test
/// on a non-zero exit.
fn stdout_of(query: &std::path::Path, args: &[&str]) -> String {
    let out = lmql_run().arg(query).args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// A token budget that falls where the constraint still needs more
/// tokens stops the hole with its value as-is, under argmax and beam
/// alike.
#[test]
fn budget_keeps_the_value_under_every_decoder() {
    for decoder in ["argmax(max_length=2)", "beam(n=1, max_length=2)"] {
        let q = write_query(
            "budget.lmql",
            &format!(
                "{decoder}\n    \"P:[X]\"\nfrom \"m\"\nwhere X in [\"aaaa\"] and len(X) < 3\n"
            ),
        );
        let stdout = stdout_of(&q, &["--model", "script:P:=aaaa"]);
        assert!(stdout.contains("X = \"aa\""), "{decoder}: {stdout}");
    }
}

#[test]
fn sequential_holes_print_the_same_bytes() {
    let q = write_query(
        "holes.lmql",
        "argmax\n    \"Q:[A]\\nR:[B]\"\nfrom \"ngram\"\nwhere stops_at(A, \"\\n\") and stops_at(B, \"\\n\")\n",
    );
    assert_eq!(
        stdout_of(&q, &["--max-tokens", "12"]),
        stdout_of(&q, &["--max-tokens", "12", "--no-parallel-holes"])
    );
}

#[test]
fn corpus_flag_splices_retrieved_evidence() {
    let corpus = write_query(
        "corpus.txt",
        "The Atlas Project. The access code for the Atlas vault is 4471.\n\n\
         The Borealis Project. The access code for the Borealis vault is 9032.\n",
    );
    let q = write_query(
        "corpus.lmql",
        "import retrieval\nargmax\n    \"Note:[X]\\n\"\n    \
         ev = retrieval.search(\"Atlas vault access code\")\n    \"Evidence: {ev}\"\n\
         from \"ngram\"\nwhere stops_at(X, \"\\n\")\n",
    );
    let corpus = corpus.to_str().unwrap();
    let stdout = stdout_of(&q, &["--corpus", corpus, "--max-tokens", "12"]);
    assert!(stdout.contains("4471"), "{stdout}");
}

#[test]
fn stream_flag_prints_a_result_summary() {
    let q = write_query(
        "stream.lmql",
        "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"ngram\"\nwhere stops_at(THING, \"\\n\")\n",
    );
    let stdout = stdout_of(&q, &["--stream", "--max-tokens", "16"]);
    assert!(stdout.contains("--- result ---"), "{stdout}");
}

/// The decoder graphs `lmql-run --trace` prints for the two queries of
/// `replicas_print_the_single_runtime_bytes`, pinned byte for byte.
const ARGMAX_GRAPH: &str = "\
[THING] stopped by stop phrase, value \" beach towel\\n\"
  step   1: mask  807/808  eos=yes  picked \" beach\" (p=0.071)
  step   2: mask  807/808  eos=yes  picked \" towel\" (p=0.854)
  step   3: mask  807/808  eos=yes  picked \"\\n\" (p=0.742)
";
const SAMPLE_GRAPH: &str = "\
[THING] stopped by stop phrase, value \" tickets\\n\"
  step   1: mask  807/808  eos=yes  picked \" tickets\" (p=0.071)
  step   2: mask  807/808  eos=yes  picked \"\\n\" (p=0.803)
[OTHER] stopped by token budget, value \" toothbrush find world workA: An impast month from today is 7 days\"
  step   1: mask  807/808  eos=yes  picked \" toothbrush\" (p=0.048)
  step   2: mask  807/808  eos=yes  picked \" find\" (p=0.000)
  step   3: mask  807/808  eos=yes  picked \" world\" (p=0.000)
  step   4: mask  807/808  eos=yes  picked \" work\" (p=0.000)
  step   5: mask  807/808  eos=yes  picked \"A\" (p=0.002)
  step   6: mask  807/808  eos=yes  picked \":\" (p=0.215)
  step   7: mask  807/808  eos=yes  picked \" A\" (p=0.053)
  step   8: mask  807/808  eos=yes  picked \"n\" (p=0.606)
  step   9: mask  807/808  eos=yes  picked \" imp\" (p=0.649)
  step  10: mask  807/808  eos=yes  picked \"ast\" (p=0.853)
  step  11: mask  807/808  eos=yes  picked \" month\" (p=0.182)
  step  12: mask  807/808  eos=yes  picked \" from\" (p=0.108)
  step  13: mask  807/808  eos=yes  picked \" today\" (p=0.638)
  step  14: mask  807/808  eos=yes  picked \" is\" (p=0.537)
  step  15: mask  807/808  eos=yes  picked \" 7\" (p=0.161)
  step  16: mask  807/808  eos=yes  picked \" days\" (p=0.598)
[THING] stopped by stop phrase, value \" toothbrush\\n\"
  step   1: mask  807/808  eos=yes  picked \" toothbrush\" (p=0.071)
  step   2: mask  807/808  eos=yes  picked \"\\n\" (p=0.803)
[OTHER] stopped by stop phrase, value \" ticketsgether. END\\n\"
  step   1: mask  807/808  eos=yes  picked \" tickets\" (p=0.323)
  step   2: mask  807/808  eos=yes  picked \"get\" (p=0.000)
  step   3: mask  807/808  eos=yes  picked \"her\" (p=0.650)
  step   4: mask  807/808  eos=yes  picked \".\" (p=0.684)
  step   5: mask  807/808  eos=yes  picked \" END\" (p=0.593)
  step   6: mask  807/808  eos=yes  picked \"\\n\" (p=0.665)
";

/// A pool of 3, with and without affinity, prints the bytes of a
/// one-replica run under non-default request options (seed, binding,
/// sequential holes), for an argmax and a sampled query — the usage
/// footer included, because it is the request's own cost wherever it
/// ran. `--trace` prints the same bytes up to its decoder graph, and the
/// same footer after it; the graph itself is the same at 1 and 3
/// replicas, and the pinned one. And the seed must matter, or a pool that
/// dropped it would pass.
#[test]
fn replicas_print_the_single_runtime_bytes() {
    let argmax = write_query(
        "replicas_argmax.lmql",
        "argmax\n    \"A list of things not to forget when travelling:\\n-[THING]\"\nfrom \"ngram\"\nwhere stops_at(THING, \"\\n\")\n",
    );
    let sample = write_query(
        "replicas_sample.lmql",
        "sample(n=2)\n    \"A note from {WHO}: things not to forget when travelling:\\n-[THING]-[OTHER]\"\nfrom \"ngram\"\nwhere stops_at(THING, \"\\n\") and stops_at(OTHER, \"\\n\")\n",
    );
    let run = |q: &std::path::Path, extra: &[&str]| -> String {
        let mut args = vec![
            "--max-tokens",
            "16",
            "--bind",
            "WHO=me",
            "--no-parallel-holes",
        ];
        args.extend_from_slice(extra);
        stdout_of(q, &args)
    };
    for (q, graph) in [(&argmax, ARGMAX_GRAPH), (&sample, SAMPLE_GRAPH)] {
        let one = run(q, &["--seed", "7"]);
        assert!(one.contains("--- usage: "), "{one}");
        assert_eq!(run(q, &["--seed", "7", "--replicas", "3"]), one, "{q:?}");
        let round_robin = run(q, &["--seed", "7", "--replicas", "3", "--no-affinity"]);
        assert_eq!(round_robin, one, "{q:?}");

        let traced = run(q, &["--seed", "7", "--trace"]);
        let (head, rest) = traced
            .split_once("--- decoder trace ---\n")
            .unwrap_or_else(|| panic!("no decoder graph: {traced}"));
        let footer = rest.lines().last().unwrap_or_default();
        assert_eq!(format!("{head}{footer}\n"), one, "{q:?} under --trace");
        assert_eq!(decoder_trace(&traced), graph, "{q:?}");
        let pooled = run(q, &["--seed", "7", "--trace", "--replicas", "3"]);
        assert_eq!(decoder_trace(&pooled), graph, "{q:?} at --replicas 3");
    }
    assert_ne!(
        run(&sample, &["--seed", "7"]),
        run(&sample, &["--seed", "8"])
    );
}
