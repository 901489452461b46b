//! Property: every checkpoint a real run writes — across shard
//! counts, chaos seeds, and kill points — parses back and re-renders
//! byte-identically. The serialized form IS the canonical form; any
//! drift between writer and parser shows up here as a one-byte diff.
//!
//! And the one-pass read of every type inside a checkpoint takes what
//! `write_json` writes back to the same value, and takes that damaged
//! cleanly: no panic, no value from text that is not JSON, the syntax
//! error named first.

use proptest::prelude::*;

use faultinject::FaultSchedule;
use p4sim::PipelineState;
use replay::ckpt::{self, Checkpoint, ShardStateRaw};
use replay::{
    run_replay_lifecycle, AlertProvenanceRecord, LifecyclePlan, ReplayConfig, ShardIncident,
};
use std::fmt::Debug;
use telemetry::json::{read, render, write, At, FromJson, Raw, ToJson};
use telemetry::Json;
use workloads::{Schedule, SynFloodWorkload};

fn tiny_flood(seed: u64) -> Schedule {
    let (s, _) = SynFloodWorkload {
        background_cps: 400,
        flood_pps: 10_000,
        flood_start: 100_000_000,
        duration: 250_000_000,
        seed,
        ..SynFloodWorkload::default()
    }
    .generate();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn written_checkpoints_reparse_byte_identically(
        shards in 1usize..=4,
        chaos_seed in 0u64..1000,
        workload_seed in 0u64..4,
        kill_at in 3u64..8,
    ) {
        let s = tiny_flood(workload_seed);
        let cfg = ReplayConfig { shards, ..ReplayConfig::default() };
        let spec = "shard_crash=1@3,ctrl_loss=0.25";
        let faults = FaultSchedule::parse(spec, chaos_seed).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "replay-ckpt-prop-{}-{shards}-{chaos_seed}-{workload_seed}-{kill_at}",
            std::process::id(),
        ));
        std::fs::remove_dir_all(&dir).ok();

        let plan = LifecyclePlan {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            kill_at_epoch: Some(kill_at),
            faults_spec: String::from(spec),
            ..LifecyclePlan::none()
        };
        let (_, report) = run_replay_lifecycle(&s, &cfg, &faults, &plan);
        prop_assert!(report.checkpoints_written >= 1, "no checkpoint written before the kill");

        let mut files = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = ckpt::parse(&text)
                .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
            prop_assert_eq!(
                &ckpt::serialize(&parsed),
                &text,
                "{:?}: parse → serialize is not the identity",
                path
            );
            files += 1;
        }
        prop_assert_eq!(files as u64, report.checkpoints_written);
        std::fs::remove_dir_all(&dir).ok();
    }
}

const ROOT: At<'static> = At::Root("$");

/// What `read` owes any text: an answer and no panic; an `Ok` only for
/// a document `Json::parse` takes, holding a value that writes back to
/// text that reads to the same value; and, for a document that is not
/// JSON, the parser's own syntax error.
fn reads_cleanly<T: ToJson + FromJson + PartialEq + Debug>(s: &str) -> Option<T> {
    let got = read::<T>(s, ROOT);
    match (&got, Json::parse(s)) {
        (Ok(v), Ok(_)) => assert_eq!(read::<T>(&write(v), ROOT).as_ref(), Ok(v), "{s:?}"),
        (Ok(v), Err(e)) => panic!("{s:?} read as {v:?}, but it is not JSON: {e}"),
        (Err(e), Err(syntax)) => assert_eq!(e, &syntax, "{s:?}"),
        (Err(_), Ok(_)) => {}
    }
    got.ok()
}

/// `x` as `write_json` writes it, which must read back equal; then that
/// text cut and with one bit flipped at every `step`th byte (and at
/// each of the first and last 64), and with its members rotated.
fn holds_for<T: ToJson + FromJson + PartialEq + Debug>(x: &T, step: usize) {
    let good = write(x);
    assert_eq!(reads_cleanly::<T>(&good).as_ref(), Some(x));
    let n = good.len();
    let at = (0..n.min(64))
        .chain((64..n).step_by(step))
        .chain(n.saturating_sub(64)..n);
    for i in at {
        if let Some(cut) = good.get(..i) {
            reads_cleanly::<T>(cut);
        }
        let mut bytes = good.clone().into_bytes();
        bytes[i] ^= 1 << (i % 8);
        if let Ok(flipped) = String::from_utf8(bytes) {
            reads_cleanly::<T>(&flipped);
        }
    }
    if let Json::Obj(mut members) = Json::parse(&good).unwrap() {
        for _ in 0..members.len() {
            members.rotate_left(1);
            reads_cleanly::<T>(&render(&Json::Obj(members.clone())));
        }
    }
}

#[test]
fn the_one_pass_read_of_every_checkpoint_type_takes_damage_cleanly() {
    let cfg = ReplayConfig {
        shards: 2,
        ..ReplayConfig::default()
    };
    let spec = "shard_crash=1@3,ctrl_loss=0.25";
    let dir = std::env::temp_dir().join(format!("replay-ckpt-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan = LifecyclePlan {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        kill_at_epoch: Some(21),
        faults_spec: String::from(spec),
        ..LifecyclePlan::none()
    };
    let (_, report) = run_replay_lifecycle(
        &tiny_flood(1),
        &cfg,
        &FaultSchedule::parse(spec, 3).unwrap(),
        &plan,
    );
    assert_eq!(report.checkpoints_written, 10);
    let (c, _) = ckpt::load_latest(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !c.provenance.is_empty() && !c.incidents.is_empty(),
        "alerts and a lost shard"
    );

    let shard = c.shards.iter().flatten().next().unwrap();
    holds_for(&c, 997);
    holds_for(shard, 499);
    holds_for(&c.incidents[0], 1);
    holds_for(&c.provenance[0], 7);
    holds_for(
        &PipelineState {
            registers: vec![(String::from("r"), vec![1, 0, u64::MAX])],
            packets_processed: 7,
        },
        1,
    );
    holds_for(&c.shards, 997);
    holds_for(&c.provenance, 31);

    // The first of two members wins, whatever the second holds; an
    // unknown member, a stray `cfg_batch` among them, is checked and
    // left.
    let good = write(&c);
    let tail = &good[1..];
    let packets_one = Checkpoint { packets: 1, ..c.clone() };
    let no_shards = Checkpoint { shards: Vec::new(), ..c.clone() };
    let ensemble = Checkpoint { ensemble: read::<Raw>("[1,2]", ROOT).unwrap(), ..c.clone() };
    for (head, want) in [
        (r#"{"packets":1,"#, Some(&packets_one)),
        (r#"{"packets":"x","#, None),
        (r#"{"cfg_batch":256,"#, Some(&c)),
        (r#"{"zzz":{"a":[1,{"b":null}],"c":"\u00e9"},"#, Some(&c)),
        (r#"{"shards":[],"#, Some(&no_shards)),
        (r#"{"ensemble":[1,2],"#, Some(&ensemble)),
        (r#"{"zzz":[1,"#, None),
    ] {
        assert_eq!(reads_cleanly::<Checkpoint>(&format!("{head}{tail}")).as_ref(), want, "{head}");
    }
    for (from, to) in [
        ("\"cfg_shards\":2,", "\"cfg_shards\":2,\"cfg_batch\":256,"),
        ("\"alive\":[", "\"alive\":[ "),
    ] {
        let variant = good.replacen(from, to, 1);
        assert_ne!(variant, good, "{from} must hit");
        assert_eq!(reads_cleanly::<Checkpoint>(&variant).as_ref(), Some(&c));
    }
    let shard_text = write(shard).replacen('{', r#"{"hll_registers":[256],"#, 1);
    assert_eq!(reads_cleanly::<ShardStateRaw>(&shard_text), None);
    let twice = r#"{"shard":0,"epoch":3,"kind":"crashed","msg":"","kind":7}"#;
    assert!(reads_cleanly::<ShardIncident>(twice).is_some());
    assert_eq!(reads_cleanly::<Vec<AlertProvenanceRecord>>("[]"), Some(Vec::new()));
}
