//! `catbench` — the repository's benchmark.
//!
//! One command runs one named workload for a fixed number of seconds in
//! a single client thread (closed loop: the next request is sent only
//! after the previous reply), checks the outputs, and prints its metrics
//! followed by one JSON line. The workloads:
//!
//! - `dialogue_cinema_1k` / `dialogue_cinema_20k` ([`dialogue`]):
//!   simulated natural-language users booking cinema tickets through an
//!   agent synthesized over a durable database of 1,000 / 20,000
//!   customers;
//! - `sql_oltp_50k` ([`sql`]): one SQL session running point lookups,
//!   range scans, top-k, joins and single-row updates against a durable
//!   50,000-row table.
//!
//! Every workload reports the same end-to-end metrics, where a request
//! is a dialogue turn or a SQL statement. Latencies, throughput, set-up
//! and recovery time are gated in reference time ([`speed_factor`]); the
//! wall-clock figures, under the names of each workload (`turn_p50_ms`,
//! `sql_point_p50_us`, ...), are printed before the JSON line. The
//! scaling is by CPU speed alone, also for the figures that mostly wait
//! on fsync (`write_p50_ref_us` of an `UPDATE`, `recover_ref_s`): those
//! read as what the reference machine's CPU and this host's disk give.
//!
//! With `--trace 1` the benchmark records a span around every call it
//! makes into a layer ([`trace`]) and prints per-layer metrics instead.
//! Nothing inside the measured crates is instrumented.

pub mod dialogue;
pub mod report;
pub mod sql;
pub mod summary;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// How a workload is run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured loop.
    pub measure: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for data directories and the trace file.
    pub dir: PathBuf,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Dialogue(dialogue::DialogueWorkload),
    Sql(sql::SqlWorkload),
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    use dialogue::DialogueWorkload;
    match name {
        "dialogue_cinema_1k" => Some(Workload::Dialogue(DialogueWorkload {
            customers: 1_000,
            dialogues: 50,
        })),
        "dialogue_cinema_20k" => Some(Workload::Dialogue(DialogueWorkload {
            customers: 20_000,
            dialogues: 50,
        })),
        "sql_oltp_50k" => Some(Workload::Sql(sql::SqlWorkload { rows: 50_000 })),
        _ => None,
    }
}

/// Time the calibration kernel takes on the reference machine (a
/// 2-vCPU cloud VM when undisturbed), in microseconds.
pub const REFERENCE_CALIBRATION_US: f64 = 21.0;

/// How many times faster than the reference machine this one runs right
/// now: the factor that turns a latency measured now into reference
/// microseconds.
///
/// On a shared host the same code runs up to twice as fast in one second
/// as in the next, which moves every latency of a run with it. The
/// gated metrics are therefore reported in reference time: latencies are
/// scaled by the speed of a fixed CPU and memory kernel (the fastest of
/// five tries) timed on the client thread around each set-up, reopen,
/// dialogue and round of statements. The kernel uses 24 KiB of stack,
/// so it leaves the client's heap alone and evicts little of its cache.
/// The SQL workload still leaves the first statement after it untimed,
/// since a lookup takes only microseconds; a dialogue's opening turn
/// takes milliseconds and is timed. A kernel timed on a thread of its
/// own tracked the client thread's speed too poorly to be of use. The
/// wall-clock figures are printed alongside.
pub fn speed_factor() -> f64 {
    let fastest = (0..5)
        .map(|_| calibration_us())
        .fold(f64::INFINITY, f64::min);
    REFERENCE_CALIBRATION_US / fastest
}

/// Time one fixed piece of work (hashing, sorting, digit counting), in
/// microseconds. It works on the stack only, so the program's heap and
/// allocator state cannot change its speed, and on 24 KiB, so it evicts
/// little of what the program keeps in cache.
fn calibration_us() -> f64 {
    const N: usize = 1024;
    const SLOTS: usize = 2 * N;
    let t = std::time::Instant::now();
    let mut keys = [0u64; N];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for k in &mut keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    // Open addressing; xorshift never yields 0, the empty mark.
    let mut slots = [0u64; SLOTS];
    let home = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOTS.ilog2())) as usize;
    for &k in &keys {
        let mut i = home(k);
        while slots[i] != 0 {
            i = (i + 1) % SLOTS;
        }
        slots[i] = k;
    }
    let hits = keys
        .iter()
        .filter(|&&k| {
            let mut i = home(k);
            while slots[i] != 0 && slots[i] != k {
                i = (i + 1) % SLOTS;
            }
            slots[i] == k
        })
        .count();
    keys.sort_unstable();
    let digits: u32 = keys[..256].iter().map(|k| k.ilog10() + 1).sum();
    std::hint::black_box((hits, digits, &keys));
    t.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, folded over successive byte strings: a digest that is
/// stable across processes and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ["ab", "c"] and ["a", "bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Derive an independent seed for item `index` of stream `stream`.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over the combined inputs.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Size of a file in bytes (0 when missing).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Write `db` as the snapshot of a fresh data directory and open it
/// durably (fsync on every commit). Stored procedures are code, not
/// data: the caller registers them again on the returned database.
pub fn open_durable_copy(
    db: &cat_txdb::Database,
    dir: &Path,
) -> Result<cat_txdb::Database, String> {
    let io = |e: std::io::Error| format!("prepare {}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let bytes = cat_txdb::dump_binary(db, 1).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(cat_txdb::database::SNAPSHOT_FILE), bytes).map_err(io)?;
    cat_txdb::Database::open(dir).map_err(|e| e.to_string())
}

/// Timed reopens of a data directory.
#[derive(Debug, Clone, Default)]
pub struct Reopens {
    /// Wall-clock seconds of each `Database::open`.
    pub wall_s: Vec<f64>,
    /// The same in reference seconds, each scaled by the mean of the
    /// speeds measured just before and just after it.
    pub ref_s: Vec<f64>,
    /// The first reopened database dumps exactly like `live`.
    pub matches: bool,
}

/// Reopen the data directory `dir` `opens` times (recovery: snapshot
/// load plus log replay) and check the first result against `live`, the
/// `dump_sql` of the database that wrote the directory.
pub fn time_reopens(dir: &Path, live: &str, opens: usize) -> Result<Reopens, String> {
    let mut r = Reopens::default();
    for i in 0..opens {
        let before = speed_factor();
        let start = std::time::Instant::now();
        let db =
            cat_txdb::Database::open(dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        let s = start.elapsed().as_secs_f64();
        r.wall_s.push(s);
        r.ref_s.push(s * (before + speed_factor()) / 2.0);
        if i == 0 {
            r.matches = cat_txdb::dump_sql(&db).map_err(|e| e.to_string())? == live;
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.update(b"ab");
        c.update(b"c");
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_index() {
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
        assert_eq!(derive_seed(9, 2, 3), derive_seed(9, 2, 3));
    }

    #[test]
    fn speed_factor_is_positive_and_finite() {
        let f = speed_factor();
        assert!(f.is_finite() && f > 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
