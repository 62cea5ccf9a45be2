//! Every workload at a tiny size: runs, passes its own checks, reports
//! exactly the metrics `BENCHMARK.json` declares, and repeats its
//! deterministic parts for a given seed.

use std::path::PathBuf;
use std::time::Duration;

use catbench::dialogue::{self, DialogueWorkload};
use catbench::report::Report;
use catbench::sql::{self, Pools, SqlWorkload};
use catbench::trace::Tracer;
use catbench::{derive_seed, RunOptions};

const TINY_DIALOGUE: DialogueWorkload = DialogueWorkload {
    customers: 60,
    dialogues: 6,
};

const TINY_SQL: SqlWorkload = SqlWorkload { rows: 2_000 };

fn options(name: &str, trace: bool, millis: u64) -> RunOptions {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    RunOptions {
        seed: 7,
        measure: Duration::from_millis(millis),
        trace,
        dir,
    }
}

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn names(metrics: &[catbench::report::Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_sound(r: &Report, traced: bool) {
    let lines = r.text_lines(traced).join("\n");
    assert!(r.correct, "checks failed:\n{lines}");
    assert!(r.attempted > 0);
    assert!(r.failed <= r.attempted, "{lines}");
    if traced {
        assert_eq!(names(&r.per_layer), declared("per_layer"));
        let overhead = r.per_layer.iter().find(|m| m.name == "trace.overhead_pct");
        assert!(overhead.is_some_and(|m| m.value.is_finite() && m.value > 0.0));
    } else {
        assert_eq!(names(&r.end_to_end), declared("end_to_end"));
        for m in &r.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
    let json = r.to_json(traced);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!json.contains('\n'));
}

#[test]
fn dialogue_workload_smoke() {
    let r = dialogue::run(&TINY_DIALOGUE, &options("dialogue", false, 0)).unwrap();
    assert_sound(&r, false);
    let detail = names(&r.detail);
    assert_eq!(
        detail,
        [
            "turn_p50_ms",
            "turn_p99_ms",
            "turns_per_dialogue",
            "recover_s",
            "setup_wall_s"
        ]
    );
}

#[test]
fn dialogue_workload_traced_smoke() {
    let opts = options("dialogue", true, 0);
    let r = dialogue::run(&TINY_DIALOGUE, &opts).unwrap();
    assert_sound(&r, true);
    let detail = names(&r.detail);
    for name in [
        "nlu.parse_us",
        "agent.identify_ms",
        "policy.choose_ms",
        "setup.synthesize_s",
    ] {
        assert!(detail.iter().any(|d| d == name), "missing {name}");
    }
    assert!(opts.dir.join("trace.jsonl").exists());
}

#[test]
fn sql_workload_smoke() {
    let r = sql::run(&TINY_SQL, &options("sql", false, 200)).unwrap();
    assert_sound(&r, false);
    assert_eq!(r.failed, 0, "no statement of the mix may fail");
    assert!(names(&r.detail).contains(&"sql_update_p99_us".to_string()));
}

#[test]
fn sql_workload_traced_smoke() {
    let opts = options("sql", true, 200);
    let r = sql::run(&TINY_SQL, &opts).unwrap();
    assert_sound(&r, true);
    assert_eq!(r.failed, 0, "no statement of the mix may fail");
    let detail = names(&r.detail);
    assert_eq!(detail.len(), 4 * 4 + 2);
    assert!(detail.contains(&"sql.topk.exec_us".to_string()));
    assert!(opts.dir.join("trace.jsonl").exists());
}

#[test]
fn sql_reads_repeat_exactly_per_seed() {
    // The data is fixed, as in the benchmark; the run's seed varies only
    // the statements.
    let digest = |seed: u64| {
        let mut db = sql::generate(TINY_SQL.rows, sql::DATA_SEED).unwrap();
        let pools = Pools::generate(TINY_SQL.rows, sql::POOL, derive_seed(seed, 2, 0));
        sql::verify_reads(&mut db, &pools).unwrap().hex()
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn policy_replay_repeats_exactly_per_seed() {
    let replay = |seed: u64| {
        let dir = options("replay", false, 0).dir.join(seed.to_string());
        let mut tracer = Tracer::new(true);
        let ep = dialogue::set_up(TINY_DIALOGUE.customers, seed, &dir, &mut tracer).unwrap();
        let goals = dialogue::draw_goals(&ep.agent, 8, seed);
        let r = dialogue::replay_identification(ep.agent.db(), &goals, seed, &mut tracer).unwrap();
        drop(ep);
        std::fs::remove_dir_all(&dir).unwrap();
        r
    };
    let first = replay(11);
    assert_eq!(first.identifications, 16);
    assert!(first.questions > 0 && first.cache_misses > 0);
    assert_eq!(first, replay(11));
}
