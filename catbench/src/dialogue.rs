//! Dialogue workloads: simulated natural-language users book cinema
//! tickets through an agent synthesized over a durable database.
//!
//! One *episode* is the agent's whole life: generate the cinema
//! database, write it to a fresh data directory and open it durably
//! (every booking commit fsyncs), synthesize the agent, then serve a
//! fixed number of dialogues, one at a time. Turn latency grows with the
//! number of dialogues an agent has served (its entropy cache fills and
//! every booking invalidates joined-attribute entries), so the dialogue
//! count is part of the workload, and a run repeats whole episodes until
//! its measuring time is used up. The users behave like those of
//! `cat_core::harness`: truthful answers from the database, 20% of
//! answers typed with typos, give up after 30 turns.
//!
//! Only `ConversationalAgent::respond` runs inside the turn timer.
//! Drawing goals (`random_cinema_goal` scans every customer) and
//! building the user's replies stay outside it.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use cat_core::{
    random_cinema_goal, reservation_exists_for, AgentResponse, AnnotationFile, CatBuilder,
    ConversationalAgent, UserGoal,
};
use cat_corpus::{cinema_procedures, generate_cinema, CinemaConfig, CINEMA_ANNOTATIONS};
use cat_nlg::NoiseModel;
use cat_policy::{
    run_identification, Attribute, CandidateSet, DataAwarePolicy, SimulationConfig, SlotSelector,
};
use cat_txdb::database::WAL_FILE;
use cat_txdb::{dump_sql, Database, Predicate, TableStats};

use crate::report::{common_layers, metric, Report};
use crate::summary::{median, Summary, Timings};
use crate::trace::Tracer;
use crate::{
    derive_seed, file_len, open_durable_copy, peak_rss_mb, speed_factor, time_reopens, Digest,
    RunOptions,
};

/// Size of one dialogue workload.
#[derive(Debug, Clone, Copy)]
pub struct DialogueWorkload {
    /// Rows of the `customer` table; the other cinema tables keep their
    /// default sizes.
    pub customers: usize,
    /// Dialogues one synthesized agent serves.
    pub dialogues: usize,
}

/// Episodes a run makes at least, whatever its measuring time
/// (`setup_s` is their median).
const MIN_EPISODES: u64 = 3;

/// Probability that the user types an answer with typos.
const P_MISSPELL: f64 = 0.2;
/// Typo intensity of a misspelled answer.
const NOISE_RATE: f64 = 1.0;
/// The user gives up after this many turns.
const MAX_TURNS: usize = 30;
/// Master seed of agent synthesis.
const SYNTHESIS_SEED: u64 = 2022;
/// Seed of the generated cinema database. The database is part of the
/// workload's definition, like its size: every episode of every run
/// serves the same data, and the run's seed varies the users (their
/// goals, phrasing and typos).
const DATA_SEED: u64 = 42;
/// Seed of the booking goals of each episode. Like the database, the
/// goals are part of the workload's definition: which customers and
/// screenings the users book sets how many questions identification
/// takes, and so how the turns divide between slow and fast ones. The
/// run's seed varies how the users phrase and mistype their answers.
const GOAL_SEED: u64 = 7;
/// Reopens of the data directory a run times for `recover_s`.
const RECOVERY_OPENS: usize = 3;
/// How the simulated user phrases an answer.
const CARRIERS: [&str; 4] = ["it is {}", "{}", "i think it is {}", "that would be {}"];

/// A synthesized agent over its durable database, with its set-up times.
pub struct Episode {
    pub agent: ConversationalAgent,
    pub n_nlu_examples: usize,
    pub n_flows: usize,
    pub corpus_s: f64,
    pub load_s: f64,
    pub synthesize_s: f64,
}

impl Episode {
    pub fn setup_s(&self) -> f64 {
        self.corpus_s + self.load_s + self.synthesize_s
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generate the cinema database, open it durably in `dir` and
/// synthesize the agent over it.
pub fn set_up(
    customers: usize,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    tracer.begin_request("setup");
    let t = Instant::now();
    let config = CinemaConfig {
        customers,
        seed,
        ..CinemaConfig::default()
    };
    let db = tracer
        .span("setup.corpus", || generate_cinema(&config))
        .map_err(|e| format!("generate cinema: {e}"))?;
    let corpus_s = secs(t);

    let t = Instant::now();
    let mut durable = tracer.span("setup.load", || open_durable_copy(&db, dir))?;
    cinema_procedures(&mut durable).map_err(|e| format!("register procedures: {e}"))?;
    drop(db);
    let load_s = secs(t);

    let t = Instant::now();
    let annotations =
        AnnotationFile::parse(CINEMA_ANNOTATIONS).map_err(|e| format!("annotations: {e}"))?;
    let (agent, synthesis) = tracer
        .span("setup.synthesize", || {
            CatBuilder::new(durable)
                .with_annotations(&annotations)
                .map(|b| b.with_seed(SYNTHESIS_SEED).synthesize())
        })
        .map_err(|e| format!("apply annotations: {e}"))?;
    let synthesize_s = secs(t);
    tracer.end();
    Ok(Episode {
        agent,
        n_nlu_examples: synthesis.n_nlu_examples,
        n_flows: synthesis.n_flows,
        corpus_s,
        load_s,
        synthesize_s,
    })
}

/// Draw `n` booking goals with distinct (customer, screening) pairs, so
/// no dialogue collides with another one's booking.
pub fn draw_goals(agent: &ConversationalAgent, n: usize, seed: u64) -> Vec<(UserGoal, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut goals = Vec::with_capacity(n);
    while goals.len() < n {
        let (goal, opening) = random_cinema_goal(agent, &mut rng);
        let pair: Vec<u64> = goal.targets.iter().map(|(_, rid)| rid.0).collect();
        if seen.insert(pair) {
            goals.push((goal, opening));
        }
    }
    goals
}

/// What one dialogue did.
#[derive(Debug, Clone, Default)]
pub struct DialogueRun {
    /// `respond` latency of every turn, in microseconds.
    pub turn_us: Vec<f64>,
    /// Abstract action of every reply.
    pub actions: Vec<String>,
    /// Latency of the turn that committed the booking.
    pub commit_us: Option<f64>,
    /// The booking executed and the goal's reservation exists.
    pub success: bool,
    /// Integrity violations found by the checks.
    pub problems: Vec<String>,
    /// Replies that reported a failed transaction.
    pub refusals: Vec<String>,
}

/// Serve one dialogue pursuing `goal`. While `tracer` is enabled each
/// turn is a `turn` request with one `agent.*` span around `respond`,
/// named after the reply's action, and after the dialogue every user
/// utterance is parsed once more on its own as an `nlu.parse` request:
/// outside the turns, so the turns run exactly as untraced ones do, and
/// back to back, so the parses run with warm caches.
pub fn run_dialogue(
    agent: &mut ConversationalAgent,
    goal: &UserGoal,
    opening: &str,
    seed: u64,
    tracer: &mut Tracer,
) -> DialogueRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = NoiseModel::new(NOISE_RATE);
    let before = reservation_count(agent.db());
    agent.reset_session();
    let mut out = DialogueRun::default();
    let mut text = opening.to_string();
    let changed = loop {
        tracer.begin_request("turn");
        tracer.begin("agent.respond");
        let t = Instant::now();
        let response = agent.respond(&text);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.end_as(layer_of(&response.action));
        tracer.end();
        out.turn_us.push(us);
        out.actions.push(response.action.clone());
        if response.action == "a:report_failure" {
            out.refusals.push(response.text.clone());
        }
        if let Some(outcome) = &response.executed {
            out.commit_us = Some(us);
            break Some(outcome.rows_affected);
        }
        if out.turn_us.len() >= MAX_TURNS {
            break None;
        }
        text = user_reply(agent, goal, &response, &mut rng, &noise);
    };
    // Every cinema procedure touches only `reservation` (or nothing), so
    // the table changes by exactly the rows the transaction reported.
    let after = reservation_count(agent.db());
    let affected = changed.unwrap_or(0);
    if after.abs_diff(before) != affected {
        out.problems.push(format!(
            "reservation rows went from {before} to {after} in a dialogue whose transaction affected {affected}"
        ));
    }
    out.success =
        changed.is_some() && reservation_exists_for(agent, goal) && goal_pair_reserved(agent, goal);
    if tracer.enabled() {
        for (_, text) in agent.transcript().iter().filter(|(who, _)| who == "user") {
            tracer.begin_request("nlu.parse");
            std::hint::black_box(agent.nlu().parse(text));
            tracer.end();
        }
    }
    out
}

/// Span name of a `respond` call, by the action it answered with.
fn layer_of(action: &str) -> &'static str {
    match action {
        "a:identify_entity" => "agent.identify",
        "a:report_success" => "agent.execute",
        _ => "agent.other",
    }
}

fn reservation_count(db: &Database) -> usize {
    db.table("reservation").map_or(0, |t| t.len())
}

/// Whether the reservation of exactly the goal's customer and screening
/// exists.
fn goal_pair_reserved(agent: &ConversationalAgent, goal: &UserGoal) -> bool {
    let db = agent.db();
    let key = |param: &str, table: &str| {
        let (_, rid) = goal.targets.iter().find(|(p, _)| p == param)?;
        db.table(table).ok()?.value_of(*rid, param).ok()
    };
    let (Some(customer), Some(screening)) = (
        key("customer_id", "customer"),
        key("screening_id", "screening"),
    ) else {
        return false;
    };
    let pred = Predicate::eq("customer_id", customer).and(Predicate::eq("screening_id", screening));
    db.select("reservation", &pred)
        .is_ok_and(|rows| rows.len() == 1)
}

/// The simulated user's next utterance (the `cat_core::harness` user).
fn user_reply(
    agent: &ConversationalAgent,
    goal: &UserGoal,
    response: &AgentResponse,
    rng: &mut StdRng,
    noise: &NoiseModel,
) -> String {
    match response.action.as_str() {
        "a:confirm_task" => "yes please".into(),
        "a:offer_options" => {
            let options = agent.pending_options().unwrap_or_default();
            goal.targets
                .iter()
                .find_map(|(_, rid)| options.iter().position(|(_, r)| r == rid))
                .map_or_else(|| "1".into(), |i| (i + 1).to_string())
        }
        "a:ask_slot" => {
            let asked = response.text.to_lowercase();
            goal.scalars
                .iter()
                .find(|(name, _)| asked.contains(&name.replace('_', " ")))
                .or_else(|| goal.scalars.first())
                .map_or_else(|| "1".into(), |(_, v)| v.clone())
        }
        "a:identify_entity" => {
            let answer = agent
                .pending_question_key()
                .and_then(|key| answer_from_db(agent, goal, &key));
            match answer {
                Some(value) => {
                    let carrier = CARRIERS.choose(rng).expect("non-empty");
                    let text = carrier.replace("{}", &value);
                    if rng.random_bool(P_MISSPELL) {
                        noise.corrupt(&text, &[], rng).0
                    } else {
                        text
                    }
                }
                None => "i do not know".into(),
            }
        }
        _ => "i do not know".into(),
    }
}

/// The target row's value for the asked attribute (first non-null value
/// for joined attributes).
fn answer_from_db(agent: &ConversationalAgent, goal: &UserGoal, attr_key: &str) -> Option<String> {
    let (attr_table, attr_column) = attr_key.split_once('.')?;
    let table = agent.active_identification_table()?;
    let task = agent.tasks().iter().find(|t| t.name == goal.task)?;
    let (_, rid) = goal.targets.iter().find(|(p, _)| {
        task.param(p)
            .and_then(|pp| pp.entity.as_ref())
            .is_some_and(|(t, _)| t == &table)
    })?;
    let db = agent.db();
    if attr_table == table {
        let v = db.table(&table).ok()?.value_of(*rid, attr_column).ok()?;
        return (!v.is_null()).then(|| v.render());
    }
    let path = cat_txdb::join_path(db, &table, attr_table)?;
    let target = db.table(attr_table).ok()?;
    cat_txdb::follow_path(db, &path, *rid)
        .into_iter()
        .filter_map(|r| target.value_of(r, attr_column).ok())
        .find(|v| !v.is_null())
        .map(|v| v.render())
}

/// Wraps the data-aware policy and records a `policy.choose` span per
/// decision.
struct TimedPolicy<'t> {
    inner: DataAwarePolicy,
    tracer: &'t mut Tracer,
}

impl SlotSelector for TimedPolicy<'_> {
    fn choose(&mut self, db: &Database, cs: &CandidateSet, asked: &[String]) -> Option<Attribute> {
        self.tracer.begin("policy.choose");
        let choice = self.inner.choose(db, cs, asked);
        self.tracer.end();
        choice
    }

    fn name(&self) -> &'static str {
        "data-aware (timed)"
    }

    fn record_outcome(&mut self, attr_key: &str, user_knew: bool) {
        self.inner.record_outcome(attr_key, user_knew);
    }
}

/// Deterministic replay of the identification policy alone: a fresh
/// `DataAwarePolicy` identifies each goal's customer and screening
/// against `cat_policy`'s simulated user, over the episode's database
/// before any dialogue ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    pub identifications: usize,
    pub questions: usize,
    pub cache_misses: u64,
}

pub fn replay_identification(
    db: &Database,
    goals: &[(UserGoal, String)],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut policy = TimedPolicy {
        inner: DataAwarePolicy::default(),
        tracer,
    };
    let config = SimulationConfig::default();
    let mut replay = Replay::default();
    for (i, (goal, _)) in goals.iter().enumerate() {
        for (j, (param, rid)) in goal.targets.iter().enumerate() {
            let table = param.trim_end_matches("_id");
            let episode_seed = derive_seed(seed, i as u64, j as u64);
            policy.tracer.begin_request("policy.identify");
            let result = run_identification(db, table, *rid, &mut policy, &config, episode_seed);
            policy.tracer.end();
            let result = result.map_err(|e| format!("replay {table}: {e}"))?;
            replay.identifications += 1;
            replay.questions += result.asked.len();
        }
    }
    replay.cache_misses = policy.inner.cache.stats().1;
    Ok(replay)
}

/// Everything a dialogue run accumulates over its episodes.
#[derive(Debug, Default)]
struct Totals {
    /// `respond` latencies, one block per episode.
    turn_us: Timings,
    /// Latencies of the turns that committed, one block per episode.
    commit_us: Timings,
    /// Speed factor of every dialogue.
    speeds: Vec<f64>,
    actions: Vec<String>,
    dialogues: usize,
    successes: usize,
    turns: usize,
    setup_s: Vec<f64>,
    setup_ref_s: Vec<f64>,
    corpus_s: Vec<f64>,
    load_s: Vec<f64>,
    synthesize_s: Vec<f64>,
    nlu_examples: Vec<usize>,
    flows: Vec<usize>,
    recover_s: Vec<f64>,
    recover_ref_s: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: Vec<f64>,
    wal_records_per_commit: Vec<f64>,
    wal_bytes_per_commit: Vec<f64>,
    stats_compute_ms: Vec<f64>,
    replay: Vec<Replay>,
    problems: Vec<String>,
    /// Replies that reported a failed transaction.
    refusals: Vec<String>,
    transcripts: Digest,
}

/// Run a dialogue workload for `opts.measure` (whole episodes).
pub fn run(w: &DialogueWorkload, opts: &RunOptions) -> Result<Report, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut t = Totals::default();
    let start = Instant::now();
    let mut episode = 0u64;
    while episode < MIN_EPISODES || start.elapsed() < opts.measure {
        let dir = opts.dir.join(format!("cinema-{episode}"));
        let speed_before = speed_factor();
        let mut ep = set_up(w.customers, DATA_SEED, &dir, &mut tracer)?;
        t.setup_s.push(ep.setup_s());
        t.setup_ref_s
            .push(ep.setup_s() * (speed_before + speed_factor()) / 2.0);
        t.corpus_s.push(ep.corpus_s);
        t.load_s.push(ep.load_s);
        t.synthesize_s.push(ep.synthesize_s);
        t.nlu_examples.push(ep.n_nlu_examples);
        t.flows.push(ep.n_flows);

        let goals = draw_goals(&ep.agent, w.dialogues, derive_seed(GOAL_SEED, 2, episode));
        if opts.trace {
            let seed = derive_seed(opts.seed, 3, episode);
            t.replay.push(replay_identification(
                ep.agent.db(),
                &goals,
                seed,
                &mut tracer,
            )?);
            let customers = ep.agent.db().table("customer").map_err(|e| e.to_string())?;
            for _ in 0..3 {
                let start = Instant::now();
                std::hint::black_box(TableStats::compute(customers));
                t.stats_compute_ms.push(secs(start) * 1e3);
            }
        }

        let wal_path = dir.join(WAL_FILE);
        let (wal_len, wal_records) = (file_len(&wal_path), ep.agent.db().wal_appended_records());
        let mut commits = 0usize;
        t.turn_us.start_block();
        t.commit_us.start_block();
        let mut speed_before = speed_factor();
        for (i, (goal, opening)) in goals.iter().enumerate() {
            let seed = derive_seed(opts.seed, 4 + episode, i as u64);
            let d = run_dialogue(&mut ep.agent, goal, opening, seed, &mut tracer);
            for (speaker, text) in ep.agent.transcript() {
                t.transcripts.update(speaker.as_bytes());
                t.transcripts.update(text.as_bytes());
            }
            t.dialogues += 1;
            t.successes += usize::from(d.success);
            t.turns += d.turn_us.len();
            commits += usize::from(d.commit_us.is_some());
            // Each dialogue's turns are scaled by the mean of the speeds
            // measured just before and just after it.
            let speed_after = speed_factor();
            let speed = (speed_before + speed_after) / 2.0;
            speed_before = speed_after;
            t.speeds.push(speed);
            d.turn_us.iter().for_each(|&us| t.turn_us.push(us, speed));
            d.commit_us
                .into_iter()
                .for_each(|us| t.commit_us.push(us, speed));
            t.actions.extend(d.actions);
            t.problems.extend(d.problems);
            t.refusals.extend(d.refusals);
        }

        let (hits, misses) = ep.agent.policy().cache.stats();
        t.cache_hits += hits;
        t.cache_misses += misses;
        t.cache_entries.push(ep.agent.policy().cache.len() as f64);
        if commits > 0 {
            let records = ep.agent.db().wal_appended_records() - wal_records;
            t.wal_records_per_commit
                .push(records as f64 / commits as f64);
            let bytes = file_len(&wal_path).saturating_sub(wal_len);
            t.wal_bytes_per_commit.push(bytes as f64 / commits as f64);
        }
        let live = dump_sql(ep.agent.db()).map_err(|e| format!("dump live database: {e}"))?;
        drop(ep);
        let reopens = time_reopens(&dir, &live, RECOVERY_OPENS)?;
        if !reopens.matches {
            t.problems
                .push(format!("{} recovers a different database", dir.display()));
        }
        t.recover_s.extend(reopens.wall_s);
        t.recover_ref_s.extend(reopens.ref_s);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        episode += 1;
    }
    if opts.trace {
        tracer
            .write_jsonl(&opts.dir.join("trace.jsonl"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report(w, &t, &tracer))
}

fn report(w: &DialogueWorkload, t: &Totals, tracer: &Tracer) -> Report {
    let (turns, commits) = (&t.turn_us.reference, &t.commit_us.reference);
    let mut r = Report {
        correct: t.problems.is_empty(),
        attempted: t.actions.len() as u64,
        failed: t.refusals.len() as u64,
        ..Report::default()
    };
    r.note("workload", format!(
        "{} customers, {} dialogues per synthesized agent, closed loop, 1 client thread, TXDB_THREADS=1, fsync on every commit",
        w.customers, w.dialogues
    ));
    r.note("episodes", t.setup_s.len());
    r.note("dialogues", t.dialogues);
    r.note("n_nlu_examples", format!("{:?}", t.nlu_examples));
    r.note("n_flows", format!("{:?}", t.flows));
    r.note("transcript_digest", t.transcripts.hex());
    r.note("turn_samples", turns.pooled().len());
    r.note("speed_factor", median(&t.speeds));
    for text in t.refusals.iter().take(3) {
        r.note("refused", text);
    }
    for p in &t.problems {
        r.note("check_failed", p);
    }

    let dialogues = t.dialogues.max(1) as f64;
    r.end_to_end = vec![
        metric("setup_s", median(&t.setup_ref_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("recover_ref_s", median(&t.recover_ref_s), "s"),
        metric("request_p50_ref_us", turns.p50(), "us"),
        metric("request_p95_ref_us", turns.p95(), "us"),
        metric("requests_per_ref_s", turns.per_s(), "1/s"),
        metric("write_p50_ref_us", commits.p50(), "us"),
        metric("task_success", t.successes as f64 / dialogues, "share"),
        metric("requests_per_task", t.turns as f64 / dialogues, "count"),
    ];
    r.detail = vec![
        metric("turn_p50_ms", t.turn_us.wall.p50() / 1e3, "ms"),
        metric("turn_p99_ms", t.turn_us.wall.p99() / 1e3, "ms"),
        metric("turns_per_dialogue", t.turns as f64 / dialogues, "count"),
        metric("recover_s", median(&t.recover_s), "s"),
        metric("setup_wall_s", median(&t.setup_s), "s"),
    ];
    if tracer.spans().is_empty() {
        return r;
    }

    let count = |a: &str| t.actions.iter().filter(|x| *x == a).count() as f64;
    let span_ms = |name: &str| median(&tracer.durations_us(name, Some("turn"))) / 1e3;
    let choose_ms: Vec<f64> = tracer
        .durations_us("policy.choose", Some("policy.identify"))
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let choose = Summary::of(&choose_ms);
    let identifications: usize = t.replay.iter().map(|x| x.identifications).sum();
    let questions: usize = t.replay.iter().map(|x| x.questions).sum();
    let lookups = (t.cache_hits + t.cache_misses).max(1);
    r.per_layer = common_layers(
        &t.corpus_s,
        &t.load_s,
        &t.stats_compute_ms,
        &t.wal_records_per_commit,
        &t.wal_bytes_per_commit,
        tracer.overhead_pct(&["turn"]),
    );
    r.detail = vec![
        metric(
            "nlu.parse_us",
            median(&tracer.durations_us("nlu.parse", None)),
            "us",
        ),
        metric("agent.identify_ms", span_ms("agent.identify"), "ms"),
        metric("agent.identify_count", count("a:identify_entity"), "count"),
        metric("agent.execute_ms", span_ms("agent.execute"), "ms"),
        metric("agent.other_ms", span_ms("agent.other"), "ms"),
        metric(
            "policy.cache_hit_rate",
            t.cache_hits as f64 / lookups as f64,
            "share",
        ),
        metric("policy.cache_entries", median(&t.cache_entries), "count"),
        metric("policy.choose_ms", choose.p50, "ms"),
        metric("policy.choose_p99_ms", choose.p99, "ms"),
        metric(
            "policy.questions_per_identification",
            questions as f64 / identifications.max(1) as f64,
            "count",
        ),
        metric(
            "policy.replay_misses",
            t.replay.iter().map(|x| x.cache_misses).sum::<u64>() as f64,
            "count",
        ),
        metric("setup.synthesize_s", median(&t.synthesize_s), "s"),
        metric(
            "setup.nlu_examples",
            median(&t.nlu_examples.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            "count",
        ),
    ];
    r
}
