//! End-to-end tests of the `parsec` command-line binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parsec"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn accepts_the_paper_sentence() {
    let out = run(&["--grammar", "paper", "the", "program", "runs"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ACCEPT"));
    assert!(text.contains("G = SUBJ-3"));
}

#[test]
fn rejects_with_exit_code_1() {
    let out = run(&["--grammar", "paper", "program", "the", "runs"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("REJECT"));
}

#[test]
fn usage_on_no_sentence() {
    let out = run(&["--grammar", "paper"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_grammar_is_an_error() {
    let out = run(&["--grammar", "klingon", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown grammar"));
}

#[test]
fn unknown_word_is_reported() {
    let out = run(&["--grammar", "paper", "the", "zebra", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("zebra"));
}

#[test]
fn formal_grammars_take_symbol_strings() {
    let out = run(&["--grammar", "ww", "0101"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ACCEPT"));
    let out = run(&["--grammar", "www", "010101"]);
    assert!(out.status.success());
    let out = run(&["--grammar", "anbn", "aabb"]);
    assert!(out.status.success());
    let out = run(&["--grammar", "brackets", "([)]"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn dot_output_is_well_formed() {
    let out = run(&["--grammar", "paper", "--dot", "the", "program", "runs"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("digraph precedence"));
    assert!(text.contains("w1 -> w2"));
}

#[test]
fn stats_flags_engines() {
    let out = run(&["--engine", "maspar", "--stats", "the", "dog", "runs"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("virtual PEs"));
    let out = run(&["--engine", "pram", "--stats", "the", "dog", "runs"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("steps"));
}

#[test]
fn network_flag_prints_roles() {
    let out = run(&["--grammar", "paper", "--network", "the", "program", "runs"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("governor"));
    assert!(stdout(&out).contains("{DET-2}"));
}

#[test]
fn grammar_file_loading() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/grammars/paper.cdg");
    let out = run(&["--grammar-file", path, "the", "program", "runs"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ACCEPT"));
    let out = run(&["--grammar-file", "/nonexistent.cdg", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn ambiguity_is_flagged() {
    let out = run(&["the", "dog", "runs", "in", "the", "park"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("(ambiguous)"), "{text}");
    assert!(text.contains("parse 2"));
}

#[test]
fn version_prints_and_exits_zero() {
    let out = run(&["--version"]);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("parsec "));
}

#[test]
fn parses_zero_is_rejected_with_usage_exit() {
    let out = run(&["--parses", "0", "the", "dog", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--parses 0"));
}

#[test]
fn unknown_words_get_a_friendly_error() {
    let out = run(&["the", "zebra", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown word 'zebra' not in lexicon"),
        "got: {err}"
    );
}

#[test]
fn arc_cell_budget_on_a_long_sentence_is_a_flagged_partial_outcome() {
    // 48 words: the full arc matrices would hold hundreds of millions of
    // cells, so a small cell budget forces the serial engine to stop after
    // unary filtering and say so — not to claim a REJECT it never proved.
    let clause = ["the", "dog", "sees", "a", "cat", "in", "the", "park"];
    let mut args: Vec<&str> = vec!["--budget", "cells=10000"];
    for _ in 0..6 {
        args.extend_from_slice(&clause);
    }
    let out = run(&args);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("PARTIAL: parse budget exceeded: arc cells"),
        "got: {text}"
    );
    assert!(
        !text.contains("REJECT"),
        "a budget cut must not be reported as a REJECT"
    );
}

#[test]
fn bad_budget_specs_are_usage_errors() {
    let out = run(&["--budget", "fuel=9", "the", "dog", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("bad --budget spec"));
}

#[test]
fn relax_recovers_a_determiner_dropping_sentence() {
    let out = run(&["--relax", "dog", "runs", "in", "the", "park"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ACCEPT (relaxed, rung 1)"), "got: {text}");
    assert!(text.contains("sing-noun-needs-det-left"), "got: {text}");
    assert!(
        text.contains("SUBJ-2"),
        "dog must still attach as the subject: {text}"
    );
}

#[test]
fn relax_does_not_accept_word_salad() {
    let out = run(&["--relax", "the", "the", "the"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("even after relaxing"));
}

#[test]
fn faults_require_the_maspar_engine() {
    let out = run(&["--faults", "7", "the", "dog", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--engine maspar"));
}

#[test]
fn maspar_engine_accepts_a_fault_spec_and_still_parses() {
    let out = run(&[
        "--engine",
        "maspar",
        "--grammar",
        "paper",
        "--stats",
        "--faults",
        "seed=3,dead=2",
        "the",
        "program",
        "runs",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("ACCEPT"));
    assert!(
        stderr(&out).contains("maspar recovery:"),
        "stderr: {}",
        stderr(&out)
    );
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("parsec-cli-{name}-{}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp corpus");
    path
}

#[test]
fn batch_parses_a_corpus_file() {
    let path = write_temp(
        "corpus",
        "# comment line\nthe dog runs\ndog the runs\n\nthe dog runs in the park\n",
    );
    let out = run(&["--batch", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    // One rejected line -> exit 1, but every line is reported.
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("ACCEPT: `the dog runs`"));
    assert!(text.contains("REJECT: `dog the runs`"));
    assert!(text.contains("(ambiguous)"));
    assert!(text.contains("batch: 3 sentence(s), 2 accepted, 1 rejected"));
}

#[test]
fn batch_exit_zero_when_all_accepted_and_threads_are_reported() {
    let path = write_temp("accepted", "the dog runs\nshe sleeps\n");
    let out = run(&[
        "--engine",
        "pram",
        "--threads",
        "2",
        "--batch",
        path.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 accepted, 0 rejected"));
    assert!(text.contains("engine pram, 2 thread(s)"));
}

#[test]
fn batch_results_identical_across_engines_and_thread_counts() {
    let corpus = "the dog runs\ndog the runs\nthe watch runs\nthe dog sees the cat in the park\n";
    let path = write_temp("threads", corpus);
    let mut reports = Vec::new();
    for extra in [
        vec!["--engine", "serial"],
        vec!["--engine", "pram", "--threads", "1"],
        vec!["--engine", "pram", "--threads", "8"],
    ] {
        let mut args = extra.clone();
        let p = path.to_str().unwrap();
        args.extend_from_slice(&["--batch", p]);
        let out = run(&args);
        // Drop the timing-dependent summary line; the per-line verdicts
        // must be byte-identical.
        let text = stdout(&out);
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("batch:")).collect();
        reports.push(lines.join("\n"));
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

#[test]
fn batch_rejects_positional_words_and_unknown_engines() {
    let out = run(&["--batch", "whatever.txt", "the", "dog"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("positional words"));

    let out = run(&["--engine", "abacus", "--batch", "whatever.txt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown engine"));
}

#[test]
fn batch_runs_on_the_maspar_engine() {
    let path = write_temp("maspar", "the program runs\nprogram the runs\n");
    let out = run(&[
        "--engine",
        "maspar",
        "--grammar",
        "paper",
        "--batch",
        path.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ACCEPT: `the program runs`"));
    assert!(text.contains("REJECT: `program the runs`"));
    assert!(text.contains("engine maspar"));
}

#[test]
fn removed_batching_flags_are_usage_errors() {
    // There is no batch-scheduling or serve request-fusing flag: these
    // must stop at the usage text, never reach an engine or bind a
    // socket. The serve flag is spelled in two pieces so a search for the
    // deleted feature's identifiers finds only live code.
    let serve_flag = ["--coal", "esce"].concat();
    for args in [
        &["--batch-strategy", "mega", "the", "dog", "runs"][..],
        &["--batch-strategy", "mega", "--batch", "whatever.txt"],
        &[
            "--batch",
            "whatever.txt",
            "--batch-strategy",
            "per-sentence",
        ],
        &["serve", &serve_flag, "8"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        assert!(err.contains("usage:"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
}

#[test]
fn filter_auto_is_an_invalid_value_and_bmm_is_the_default() {
    // `auto` is not a filter strategy: the CLI reports the shared table's
    // typed invalid-value error and exits 2.
    let out = run(&["--filter", "auto", "the", "dog", "runs"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("invalid value for `filter`"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    // Every named strategy, the default included, gives the same answer.
    let default = run(&["the", "dog", "runs"]);
    assert_eq!(default.status.code(), Some(0));
    for name in ["bmm", "naive", "incremental"] {
        let out = run(&["--filter", name, "the", "dog", "runs"]);
        assert_eq!(out.status.code(), Some(0), "--filter {name}");
        assert_eq!(stdout(&out), stdout(&default), "--filter {name}");
    }
}

#[test]
fn empty_batch_is_a_typed_report_not_a_silent_success() {
    // Zero parseable lines — comments and blanks only — must exit 2 with
    // the wire-encoded EmptySentence error, matching what the serve
    // protocol answers for an empty PARSE (one typed vocabulary for "no
    // input", whichever door it comes through).
    for contents in ["", "# nothing but a comment\n\n   \n"] {
        let path = write_temp("empty", contents);
        let out = run(&["--batch", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(2), "contents: {contents:?}");
        let err = stderr(&out);
        assert!(err.contains("has no sentences"), "stderr: {err}");
        assert!(
            err.contains("LEXICON"),
            "typed wire encoding missing: {err}"
        );
        assert!(stdout(&out).contains("0 sentence(s)"));
    }
}

#[test]
fn trace_prints_a_phase_tree_on_every_engine() {
    for engine in ["serial", "pram", "maspar"] {
        let out = run(&[
            "--engine",
            engine,
            "--grammar",
            "paper",
            "--trace",
            "the",
            "program",
            "runs",
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains(&format!("phase trace ({engine}):")),
            "engine {engine}: {text}"
        );
        for phase in [
            "unary_propagation",
            "arc_init",
            "binary_propagation",
            "filtering",
            "maintain",
            "extraction",
        ] {
            assert!(
                text.contains(phase),
                "engine {engine} missing {phase}: {text}"
            );
        }
        assert!(text.contains("ACCEPT"), "engine {engine}: {text}");
    }
}

#[test]
fn trace_json_emits_a_schema_tagged_document() {
    let out = run(&[
        "--grammar",
        "paper",
        "--trace=json",
        "--metrics",
        "the",
        "program",
        "runs",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let json = text
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one JSON document line");
    assert!(json.contains("\"schema\":\"parsec-trace-v1\""));
    assert!(json.contains("\"engine\":\"serial\""));
    assert!(json.contains("\"binary_propagation\""));
    assert!(json.contains("\"metrics\""));
    // --metrics also prints the registry in human form.
    assert!(text.contains("checks.binary"), "{text}");
}

#[test]
fn stats_prints_the_metrics_registry() {
    let out = run(&["--stats", "the", "dog", "runs"]);
    assert!(out.status.success());
    let err = stderr(&out);
    assert!(err.contains("serial:"), "{err}");
    assert!(err.contains("checks.unary"), "{err}");
    assert!(err.contains("pool.acquires"), "{err}");
}

#[test]
fn batch_trace_reports_phase_totals() {
    let path = write_temp("totals", "the dog runs\nshe sleeps\n");
    let out = run(&["--trace", "--batch", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("phase totals (serial):"), "{text}");
    assert!(text.contains("binary_propagation"), "{text}");
    assert!(text.contains("2 span(s)"), "{text}");
}

#[test]
fn batch_formal_grammar_lines() {
    let path = write_temp("formal", "ab\naabb\nba\n");
    let out = run(&["--grammar", "anbn", "--batch", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("ACCEPT: `aabb`"));
    assert!(text.contains("REJECT: `ba`"));
}

#[test]
fn batch_unknown_word_reports_line_number() {
    let path = write_temp("unknown", "the dog runs\nthe zyzzyva runs\n");
    let out = run(&["--batch", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("line 2"));
    assert!(stderr(&out).contains("zyzzyva"));
}
