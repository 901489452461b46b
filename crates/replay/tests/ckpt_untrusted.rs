//! A checkpoint file is untrusted input. Whatever bytes are in it,
//! `parse` → `ShardStateRaw::restore` → `rebuild_detection` never
//! panics, a document that is accepted is the document that was
//! written, and a file whose checksum is right but whose detector
//! state no detector could have exported is a counted fallback on
//! resume, not a crash and not a silently different run. A shard's
//! register files are written as their non-zero cells, so what they
//! cost to read is bounded by a fresh shard's geometry, never by what
//! the file claims.

mod counting;
mod reseal;

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;

use counting::count;
use reseal::with_first_pair;
use faultinject::FaultSchedule;
use replay::ckpt::{self, Checkpoint, ShardStateRaw};
use replay::{
    render_outcome_json, resume_from_checkpoint, run_replay_lifecycle, LifecyclePlan, ReplayConfig,
    ShardState,
};
use telemetry::json::{At, Raw};
use telemetry::Json;
use workloads::{Schedule, SynFloodWorkload};

/// The counting allocator is the process's: the tests take turns, so
/// nothing else allocates while one counts.
fn turn() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const CHAOS: &str = "shard_crash=1@3,ctrl_loss=0.30";
const SEED: u64 = 7;

fn flood() -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 500,
        flood_pps: 20_000,
        flood_start: 150_000_000,
        duration: 400_000_000,
        seed: 11,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

fn cfg() -> ReplayConfig {
    ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    }
}

fn plan(dir: &Path, kill_at_epoch: Option<u64>) -> LifecyclePlan {
    LifecyclePlan {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 2,
        kill_at_epoch,
        faults_spec: String::from(CHAOS),
        ..LifecyclePlan::none()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("replay-untrusted-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A chaos run killed at epoch `kill_at`, leaving its checkpoints
/// (#0 at epoch 2, #1 at epoch 4, ...) in `dir`.
fn killed_run(dir: &Path, kill_at: u64) {
    let faults = FaultSchedule::parse(CHAOS, SEED).unwrap();
    let (_, report) = run_replay_lifecycle(&flood(), &cfg(), &faults, &plan(dir, Some(kill_at)));
    assert_eq!(report.checkpoints_written, kill_at / 2);
}

/// The newest checkpoint a real chaos run wrote, as bytes and parsed —
/// late enough that detectors have fired and provenance exists.
fn real_checkpoint() -> &'static (String, Checkpoint) {
    static REAL: OnceLock<(String, Checkpoint)> = OnceLock::new();
    REAL.get_or_init(|| {
        let dir = fresh_dir("corpus");
        killed_run(&dir, 31);
        let text = std::fs::read_to_string(dir.join(ckpt::file_name(14))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let parsed = ckpt::parse(&text).expect("a freshly written checkpoint parses");
        assert!(
            !parsed.provenance.is_empty(),
            "corpus checkpoint predates the first alert"
        );
        (text, parsed)
    })
}

/// Pushes `bytes` through everything resume does with a file's
/// content. Returns whether the document was accepted.
fn digest(bytes: &[u8]) -> bool {
    let (_, original) = real_checkpoint();
    // `load_latest` reads with `read_to_string`, which refuses invalid
    // UTF-8 before the parser runs. The lossy form lets the parser
    // see that damage instead of being spared it.
    let lossy = String::from_utf8_lossy(bytes);
    let Ok(c) = ckpt::parse(&lossy) else {
        return false;
    };
    assert_eq!(
        &c, original,
        "an accepted document is the one that was written"
    );
    for shard in c.shards.iter().flatten() {
        shard.restore().expect("the written shard state restores");
    }
    c.rebuild_detection(&cfg())
        .expect("the written detection state imports");
    true
}

#[test]
fn the_written_document_is_accepted() {
    let _turn = turn();
    assert!(digest(real_checkpoint().0.as_bytes()));
}

/// Truncation at every byte of the first and last KiB (the header,
/// the start of the payload, the closing braces) and at every 97th
/// byte between: a torn write is rejected wherever it tears.
#[test]
fn no_prefix_of_a_checkpoint_is_accepted() {
    let _turn = turn();
    let text = real_checkpoint().0.as_bytes();
    let dense = 1024.min(text.len() / 2);
    let cuts = (0..dense)
        .chain((dense..text.len() - dense).step_by(97))
        .chain(text.len() - dense..text.len());
    for cut in cuts {
        assert!(!digest(&text[..cut]), "the {cut}-byte prefix was accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_rejected_without_a_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        at in 0usize..1_000_000,
    ) {
        let _turn = turn();
        prop_assert!(!digest(&bytes));
        // The same garbage over a window of the real document.
        let mut doc = real_checkpoint().0.clone().into_bytes();
        let at = at % doc.len();
        let end = (at + bytes.len()).min(doc.len());
        let before = doc[at..end].to_vec();
        doc[at..end].copy_from_slice(&bytes[..end - at]);
        prop_assert!(!digest(&doc) || doc[at..end] == before[..]);
    }

    #[test]
    fn a_single_flipped_bit_is_never_absorbed(at in 0usize..1_000_000, bit in 0u32..8) {
        let _turn = turn();
        let mut doc = real_checkpoint().0.clone().into_bytes();
        let at = at % doc.len();
        doc[at] ^= 1 << bit;
        // Accepted or not, `digest` has already held it to the
        // original; a flip inside the payload can never be accepted.
        let accepted = digest(&doc);
        let payload_from = real_checkpoint().0.find("\"payload\":").unwrap() + "\"payload\":".len();
        prop_assert!(!(accepted && at >= payload_from && at < doc.len() - 1));
    }
}

/// A shard whose geometry is not a fresh shard's is refused by the
/// name of the member that differs, and before the register file that
/// member sizes is allocated: a few hundred bytes claiming 2^27-cell
/// sketch rows cost the reader 64–128 bytes (the refusal; about 2 kB
/// while `read` built a tree to name it), less than a fresh shard's
/// register files and nothing like the 8 GiB the claim is worth.
#[test]
fn another_geometry_is_refused_by_name_before_its_register_files_are_allocated() {
    let _turn = turn();
    let fresh = ShardStateRaw::of(&ShardState::new(&cfg()));
    let register_bytes = 8 * (fresh.kinds_counts.len() + fresh.sk_cells.len() + fresh.pc_counts.len())
        + fresh.hll_registers.len();
    let written = telemetry::json::write(&fresh);
    assert!(written.len() < 400, "a fresh shard is {} bytes", written.len());
    assert_eq!(telemetry::json::read::<ShardStateRaw>(&written, At::Root("shard")), Ok(fresh));
    for (member, from, to, fresh_value) in [
        ("sk_width_log2", "12", "27", "12"),
        ("sk_rows", "4", "1048576", "4"),
        ("hll_precision", "10", "30", "10"),
        ("pc_max", "2047", "9223372036854775807", "2047"),
        ("kinds_min", "0", "-9223372036854775808", "0"),
    ] {
        let doc = written.replacen(&format!("\"{member}\":{from},"), &format!("\"{member}\":{to},"), 1);
        assert_ne!(doc, written, "{member}: the tamper must hit");
        let (read, _, bytes) = count(|| telemetry::json::read::<ShardStateRaw>(&doc, At::Root("shard")));
        assert_eq!(read.unwrap_err(), format!("shard.{member}: {to} is not the {fresh_value} this build reads"));
        assert!(
            bytes < register_bytes as u64,
            "{member}: reading {} bytes asked for {bytes} bytes; a fresh shard's register files are {register_bytes}",
            doc.len()
        );
    }
}

/// Under a valid checksum, a cell at or past the end of its register
/// file, a count its cell cannot hold, or an index written twice is
/// refused with the path of the pair that holds it.
#[test]
fn a_cell_outside_its_register_file_or_its_width_is_refused_with_its_path() {
    let _turn = turn();
    let text = &real_checkpoint().0;
    let sk = text.find("\"sk_cells\":[[").expect("shard 0 counted destinations") + "\"sk_cells\":[".len();
    let first_sk = &text[sk..=sk + text[sk..].find(']').unwrap()];
    for (member, pair, why) in [
        ("kinds_counts", "[8,1]", "index 8 is outside its 8 cells"),
        ("sk_cells", "[16384,1]", "index 16384 is outside its 16384 cells"),
        ("sk_cells", "[18446744073709551615,1]", "index 18446744073709551615 is outside its 16384 cells"),
        ("pc_counts", "[2048,1]", "index 2048 is outside its 2048 cells"),
        ("hll_registers", "[1024,1]", "index 1024 is outside its 1024 cells"),
        ("hll_registers", "[5,256]", "overflows u8"),
        ("sk_cells", first_sk, "does not increase on index"),
    ] {
        let doc = with_first_pair(text, member, pair);
        let err = ckpt::parse(&doc).unwrap_err();
        assert!(err.starts_with(&format!("$.payload.shards[0].{member}[")) && err.contains(why), "{pair}: {err}");
        assert!(!digest(doc.as_bytes()));
    }
}

/// `v[path[0]][path[1]]...`, members by key and array items by decimal
/// index.
fn at<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(v, |v, step| match v {
        Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == step).expect(step).1,
        Json::Arr(items) => &mut items[step.parse::<usize>().expect(step)],
        other => panic!("{step}: cannot index {other:?}"),
    })
}

/// `raw`, a checkpoint's detection state, with `edit` made to its tree.
fn tampered(raw: &mut Raw, edit: impl FnOnce(&mut Json)) {
    let mut tree = Json::parse(&telemetry::json::write(raw)).unwrap();
    edit(&mut tree);
    *raw = telemetry::json::read(&telemetry::json::render(&tree), At::Root("ensemble")).unwrap();
}

/// The semantic half: the bytes are intact (`serialize` seals the
/// tampered checkpoint with a correct checksum), the state is not.
/// Either `rebuild_detection` refuses it (no detector could have
/// exported that state) or the coordinator does (its own fields are
/// ones the epoch loop would index or divide by). A resume that finds
/// such a file newest falls back to its predecessor, says so, and
/// still finishes byte-identical to the uninterrupted run.
#[test]
fn checksum_valid_but_impossible_state_is_a_counted_fallback() {
    let _turn = turn();
    /// What to damage, and the reason the fallback must give when it
    /// is the coordinator that refuses (`None`: `rebuild_detection`
    /// refuses, and its error is the reason).
    type Case = (&'static str, fn(&mut Checkpoint), Option<&'static str>);
    let cases: [Case; 12] = [
        (
            "wrong ring length",
            |c| tampered(&mut c.ensemble, |s| match at(s, &["engines", "0", "state", "ring"]) {
                Json::Arr(ring) => {
                    ring.pop();
                }
                _ => unreachable!(),
            }),
            None,
        ),
        (
            "season phase >= season_len",
            |c| tampered(&mut c.ensemble, |s| *at(s, &["engines", "4", "state", "phase"]) = Json::Int(16)),
            None,
        ),
        (
            "negative count",
            |c| tampered(&mut c.ensemble, |s| *at(s, &["engines", "1", "state", "window", "filled"]) = Json::Int(-2)),
            None,
        ),
        (
            "unknown engine name",
            |c| tampered(&mut c.ensemble, |s| *at(s, &["engines", "5", "name"]) = Json::Str("entropy".into())),
            None,
        ),
        (
            "missing engine",
            |c| tampered(&mut c.ensemble, |s| match at(s, &["engines"]) {
                Json::Arr(engines) => {
                    engines.remove(2);
                }
                _ => unreachable!(),
            }),
            None,
        ),
        // The coordinator's own fields. Each of these panicked the
        // resume (a division by zero, an index out of bounds, an
        // `expect`) before `EpochCoordinator::restore` checked them.
        (
            "carried_epochs = -1",
            |c| {
                c.carried_epochs = -1;
                c.carried_from.clear();
            },
            Some("carried_epochs is -1"),
        ),
        (
            "carried_epochs disagrees with carried_from",
            |c| c.carried_epochs += 1,
            Some("carried_from lists"),
        ),
        (
            "negative carried_syns",
            |c| c.carried_syns = -5,
            Some("carried_syns is negative"),
        ),
        (
            "no alive flags",
            |c| c.alive.clear(),
            Some("0 alive flag(s)"),
        ),
        (
            "alive shard without state",
            |c| {
                c.alive[0] = true;
                c.shards[0] = None;
            },
            Some("shard 0 is marked alive but its state is absent"),
        ),
        (
            "shards truncated to one entry",
            |c| c.shards.truncate(1),
            Some("1 shard slot(s)"),
        ),
        (
            "negative carried_len_sum",
            |c| c.carried_len_sum = -1,
            Some("carried_len_sum is negative"),
        ),
    ];

    let s = flood();
    let faults = FaultSchedule::parse(CHAOS, SEED).unwrap();
    let (full, _) = run_replay_lifecycle(&s, &cfg(), &faults, &LifecyclePlan::none());
    let snapshot = render_outcome_json(&full);

    for (i, (what, tamper, coordinator_says)) in cases.into_iter().enumerate() {
        let dir = fresh_dir(&format!("semantic-{i}"));
        killed_run(&dir, 9); // checkpoints #0..#3; #3 resumes at epoch 8
        let newest = dir.join(ckpt::file_name(3));
        let mut c = ckpt::parse(&std::fs::read_to_string(&newest).unwrap()).unwrap();
        c.rebuild_detection(&cfg())
            .expect("the untampered checkpoint rebuilds");
        tamper(&mut c);
        let sealed = ckpt::serialize(&c);
        assert_eq!(
            ckpt::parse(&sealed).expect("the checksum is valid"),
            c,
            "{what}"
        );
        let err = match (c.rebuild_detection(&cfg()), coordinator_says) {
            (Err(e), None) => e,
            (Ok(_), Some(reason)) => reason.to_string(),
            (r, _) => panic!("{what}: rebuild_detection gave {:?}", r.map(|_| ())),
        };
        std::fs::write(&newest, sealed).unwrap();

        let (resumed, report) = resume_from_checkpoint(&s, &cfg(), &plan(&dir, None))
            .unwrap_or_else(|e| panic!("{what}: resume failed instead of falling back: {e}"));
        assert_eq!(report.resumed_from, Some(2), "{what}");
        let fallback = report
            .events
            .iter()
            .find(|e| e.kind == "checkpoint_fallback")
            .unwrap_or_else(|| panic!("{what}: no checkpoint_fallback in {:?}", report.events));
        assert!(
            fallback.detail.contains("ckpt-000003") && fallback.detail.contains(&err),
            "{what}: {}",
            fallback.detail
        );
        assert_eq!(render_outcome_json(&resumed), snapshot, "{what}");
        assert_eq!(resumed.ensemble, full.ensemble, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint holds the fired log as the provenance of the triggers
/// the fired results pulled. A fired result that names an engine the
/// ensemble does not run is refused by `rebuild_detection` with its
/// path, and a resume that finds it newest falls back to its
/// predecessor without a panic and finishes as the uninterrupted run.
#[test]
fn a_fired_result_from_an_engine_not_in_the_ensemble_is_a_counted_fallback() {
    let _turn = turn();
    let s = flood();
    let faults = FaultSchedule::parse(CHAOS, SEED).unwrap();
    let (full, _) = run_replay_lifecycle(&s, &cfg(), &faults, &LifecyclePlan::none());

    let dir = fresh_dir("fired-entropy");
    killed_run(&dir, 31); // checkpoints #0..#14; #14 resumes at epoch 30
    let newest = dir.join(ckpt::file_name(14));
    let mut c = ckpt::parse(&std::fs::read_to_string(&newest).unwrap()).unwrap();
    let fired = c.provenance.iter().enumerate().find_map(|(i, r)| {
        r.provenance.engines.iter().position(|e| e.fired).map(|j| (i, j))
    });
    let (i, j) = fired.expect("an engine fired before the checkpoint");
    c.provenance[i].provenance.engines[j].engine = String::from("entropy");
    let err = c.rebuild_detection(&cfg()).map(|_| ()).unwrap_err();
    assert_eq!(
        err,
        format!("$.payload.provenance[{i}].provenance.engines[{j}].engine: unknown engine \"entropy\"")
    );
    std::fs::write(&newest, ckpt::serialize(&c)).unwrap();

    let (resumed, report) = resume_from_checkpoint(&s, &cfg(), &plan(&dir, None))
        .unwrap_or_else(|e| panic!("resume failed instead of falling back: {e}"));
    assert_eq!(report.resumed_from, Some(13));
    let fallback = report
        .events
        .iter()
        .find(|e| e.kind == "checkpoint_fallback")
        .unwrap_or_else(|| panic!("no checkpoint_fallback in {:?}", report.events));
    assert!(
        fallback.detail.contains("ckpt-000014") && fallback.detail.contains(&err),
        "{}",
        fallback.detail
    );
    assert_eq!(render_outcome_json(&resumed), render_outcome_json(&full));
    assert_eq!(resumed.ensemble, full.ensemble);
    std::fs::remove_dir_all(&dir).ok();
}
