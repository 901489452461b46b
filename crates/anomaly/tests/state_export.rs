//! State export is exact: an engine (or the whole ensemble and the
//! drilldown ladder) loaded from another's exported state answers
//! every later interval identically — results, summaries, metrics, and
//! the fired log, which is rebuilt from the provenance of the triggers
//! it pulled. And it is checked input: state no engine of that
//! configuration could have exported is refused, never absorbed. The
//! state is compared as the text it is written as, and read back from
//! that text, as it comes back from a file.

use anomaly::shift::ShiftConfig;
use anomaly::stalled::StalledFlowConfig;
use anomaly::synflood::KIND_SYN;
use anomaly::{
    AlertProvenance, CardinalityEngine, CusumEngine, Detector, Ensemble, EnsembleConfig,
    HoltWintersEngine, PercentileShiftDetector, ScoreDrilldown, SignalContext, SignalValues,
    StalledFlowDetector, SynFloodDetector,
};
use stat4_core::{FrequencyDist, RunningStats};
use telemetry::json::{render, At, Lexer};
use telemetry::Json;

const INTERVAL_NS: u64 = 10_000_000;

/// One interval's signals with the cumulative trackers owned, so a
/// `SignalContext` can borrow them.
struct Interval {
    epoch: u64,
    spanned: i64,
    packets: i64,
    syns: i64,
    len_sum: i64,
    distinct_sources: i64,
    median_len: i64,
    kinds: FrequencyDist,
    len_stats: RunningStats,
}

impl Interval {
    fn ctx(&self) -> SignalContext<'_> {
        SignalContext {
            at: (self.epoch + 1) * INTERVAL_NS,
            epoch: self.epoch,
            interval_ns: INTERVAL_NS,
            spanned: self.spanned,
            packets: self.packets,
            syns: self.syns,
            len_sum: self.len_sum,
            distinct_sources: self.distinct_sources,
            median_len: self.median_len,
            kinds: &self.kinds,
            len_stats: &self.len_stats,
        }
    }
}

/// A seeded, seasonal signal stream. With `episodes` it carries one
/// for every engine — a median step (the marker starts its walk once
/// the new mass outweighs the old, around epoch 41, and walks for 200
/// intervals), a stall, a SYN flood, a spoofed-source sweep, a slow
/// SYN creep, a volume swell, a phase flip and a frame-size regime
/// change, most of them twice — so export points in the middle fall
/// inside episodes; without, it is the same traffic staying quiet.
fn stream(seed: u64, intervals: u64, episodes: bool) -> Vec<Interval> {
    let mut x = seed;
    let mut noise = move |span: i64| {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % span as u64) as i64
    };
    let mut kind_counts = vec![0u64; 8];
    let (mut n, mut xsum, mut xsumsq) = (0u64, 0i64, 0i64);
    (0..intervals)
        .map(|epoch| {
            let phase = (epoch % 16) as i64;
            let flipped = episodes && (180..212).contains(&epoch);
            let season = if flipped { 15 - phase } else { phase };
            let mut packets = 1_000 + 40 * season + noise(30);
            let mut syns = 20 + noise(6);
            let mut distinct = 60 + noise(6);
            let mut mean_len = 400 + noise(12);
            let median_len = if episodes && epoch >= 20 { 600 } else { 400 };
            match epoch {
                _ if !episodes => {}
                60..=63 | 270..=273 => packets = noise(3),
                70..=73 | 200..=203 => syns += 4_000,
                90..=92 | 250..=252 => distinct += 5_000,
                110..=139 => syns += 14,
                140..=175 => packets += (epoch as i64 - 140) * 30,
                _ => {}
            }
            if episodes && epoch >= 290 {
                mean_len += 500;
            }
            packets += syns;
            kind_counts[KIND_SYN as usize] += syns as u64;
            kind_counts[0] += (packets - syns) as u64 / 2;
            kind_counts[2] += (packets - syns) as u64 / 3;
            kind_counts[3] += (packets - syns) as u64 / 6;
            n += packets as u64;
            xsum += packets * mean_len;
            xsumsq += packets * mean_len * mean_len;
            Interval {
                epoch,
                spanned: 1 + i64::from(noise(10) == 0),
                packets,
                syns,
                len_sum: packets * mean_len,
                distinct_sources: distinct,
                median_len,
                kinds: FrequencyDist::from_raw_counts(0, kind_counts.clone()).unwrap(),
                len_stats: RunningStats::from_raw(n, xsum, xsumsq),
            }
        })
        .collect()
}

/// The six engines as `replay::build_ensemble` configures them.
fn engines() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(SynFloodDetector::new()),
        Box::new(StalledFlowDetector::new(StalledFlowConfig {
            interval_ns: INTERVAL_NS,
            ..StalledFlowConfig::default()
        })),
        Box::new(PercentileShiftDetector::new(ShiftConfig {
            domain: (0, 2047),
            interval_ns: INTERVAL_NS,
            ..ShiftConfig::default()
        })),
        Box::new(CusumEngine::new()),
        Box::new(HoltWintersEngine::new()),
        Box::new(CardinalityEngine::new()),
    ]
}

/// What `export` appends to an empty buffer: a state's text.
fn text(export: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    export(&mut out);
    out
}

/// An engine's exported state.
fn state(e: &dyn Detector) -> String {
    text(|out| e.export_state(out))
}

/// `state` read into `e`, all of it.
fn import(state: &str, read: impl FnOnce(&mut Lexer<'_>) -> Result<(), String>) -> Result<(), String> {
    let mut lx = Lexer::new(state);
    read(&mut lx)?;
    lx.finish()
}

#[test]
fn every_engine_resumes_exactly_from_its_exported_state() {
    let signals = stream(7, 340, true);
    // Export points before seeding, mid-calibration, mid-season, and
    // in the middle of most episodes.
    for split in [0usize, 5, 17, 33, 62, 72, 121, 150, 200, 291] {
        for (slot, mut live) in engines().into_iter().enumerate() {
            let name = live.name();
            for i in &signals[..split] {
                live.update(&i.ctx());
            }
            let exported = state(live.as_ref());
            let mut resumed = engines().remove(slot);
            import(&exported, |lx| resumed.import_state(lx))
                .unwrap_or_else(|e| panic!("{name} at {split}: {e}"));
            assert_eq!(state(resumed.as_ref()), exported, "{name} at {split}");
            let mut fired = 0;
            for i in &signals[split..] {
                let (a, b) = (live.update(&i.ctx()), resumed.update(&i.ctx()));
                assert_eq!(a, b, "{name} split {split} epoch {}", i.epoch);
                fired += usize::from(a.is_some_and(|r| r.fired));
            }
            assert_eq!(
                state(resumed.as_ref()),
                state(live.as_ref()),
                "{name} at {split}"
            );
            assert!(
                split > 0 || fired > 0,
                "{name} never fires: the stream lost its episode"
            );
        }
    }
}

#[test]
fn engine_state_does_not_grow_with_quiet_intervals() {
    // From the interval the slowest window fills (32 sums of 16) to
    // five times as many: what is left to grow is counter digits.
    let quiet = stream(3, 3_000, false);
    for mut e in engines() {
        let mut early = 0;
        for (fed, i) in quiet.iter().enumerate() {
            if fed == 600 {
                early = state(e.as_ref()).len();
            }
            e.update(&i.ctx());
        }
        let late = state(e.as_ref()).len();
        assert!(
            late * 10 < early * 11,
            "{} state went {early} -> {late} bytes over {} quiet intervals",
            e.name(),
            quiet.len()
        );
    }
}

fn ensemble() -> (Ensemble, ScoreDrilldown) {
    (
        Ensemble::new(engines()),
        ScoreDrilldown::new(EnsembleConfig::default().trigger),
    )
}

#[test]
fn ensemble_and_ladder_resume_exactly() {
    let signals = stream(11, 340, true);
    for split in [0usize, 40, 125, 232] {
        let (mut live, mut live_drill) = ensemble();
        // The provenance of every trigger, as the replay coordinator
        // records it at the detect site.
        let mut provenance = Vec::new();
        for i in &signals[..split] {
            let verdict = live.observe(&i.ctx());
            if live_drill.observe(&verdict).is_some() {
                let signals = SignalValues::capture(&i.ctx());
                provenance.push(AlertProvenance::assemble(signals, &verdict));
            }
        }
        let exported = text(|out| live.export_state(out));
        let ladder = text(|out| live_drill.export_state(out));

        let (mut resumed, mut resumed_drill) = ensemble();
        import(&exported, |lx| resumed.import_state(lx)).unwrap();
        import(&ladder, |lx| resumed_drill.import_state(lx)).unwrap();
        for p in &provenance {
            resumed.log_fired(p, At::Root("provenance")).unwrap();
        }
        assert_eq!(resumed.fired_log, live.fired_log, "split {split}: rebuilt from provenance");
        assert_eq!(text(|out| resumed.export_state(out)), exported, "split {split}");

        for i in &signals[split..] {
            let (a, b) = (live.observe(&i.ctx()), resumed.observe(&i.ctx()));
            assert_eq!(a, b, "split {split} epoch {}", i.epoch);
            assert_eq!(
                live_drill.observe(&a),
                resumed_drill.observe(&b),
                "epoch {}",
                i.epoch
            );
        }
        assert_eq!(resumed.fired_log, live.fired_log, "split {split}");
        assert_eq!(resumed.summaries(), live.summaries());
        assert_eq!(resumed.metrics_by_name(), live.metrics_by_name());
        assert!(live.fired_log.iter().any(|r| r.engine == "synflood"));
        assert_eq!(text(|out| resumed.export_state(out)), text(|out| live.export_state(out)));
        assert_eq!(
            text(|out| resumed_drill.export_state(out)),
            text(|out| live_drill.export_state(out))
        );
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

#[test]
fn state_no_engine_could_have_exported_is_refused() {
    let signals = stream(5, 80, true);
    let (mut live, _) = ensemble();
    for i in &signals {
        live.observe(&i.ctx());
    }
    let written = text(|out| live.export_state(out));
    let mut ens = ensemble().0;
    import(&written, |lx| ens.import_state(lx)).expect("the untampered state imports");
    let good = Json::parse(&written).unwrap();

    type Tamper = fn(&mut Json);
    let cases: [(&str, Tamper, &str); 8] = [
        (
            "ring of another length",
            |s| match at(s, &["engines", "5", "state", "ring"]) {
                Json::Arr(ring) => ring.push(Json::Int(1)),
                _ => unreachable!(),
            },
            "ring length",
        ),
        (
            "season phase outside the season",
            |s| *at(s, &["engines", "4", "state", "phase"]) = Json::Int(16),
            "phase",
        ),
        (
            "negative count",
            |s| *at(s, &["engines", "3", "state", "baseline", "filled"]) = Json::Int(-1),
            "non-negative",
        ),
        (
            "negative CUSUM statistic",
            |s| *at(s, &["engines", "3", "state", "calibrated", "statistic"]) = Json::Int(-5),
            "negative",
        ),
        (
            "unknown engine name",
            |s| *at(s, &["engines", "0", "name"]) = Json::Str("entropy".into()),
            "unknown engine \"entropy\"",
        ),
        (
            "missing engine",
            |s| match at(s, &["engines"]) {
                Json::Arr(engines) => {
                    engines.remove(4);
                }
                _ => unreachable!(),
            },
            "\"holtwinters\" is missing",
        ),
        (
            "median masses that do not add up",
            |s| *at(s, &["engines", "2", "state", "walk", "total"]) = Json::Int(3),
            "add up",
        ),
        (
            "median cell outside the length domain",
            |s| match at(s, &["engines", "2", "state", "cells"]) {
                Json::Arr(cells) => cells.push(Json::Arr(vec![Json::Int(2048), Json::Int(1)])),
                _ => unreachable!(),
            },
            "index 2048 is outside its 2048 cells",
        ),
    ];
    for (what, tamper, expect) in cases {
        let mut bad = good.clone();
        tamper(&mut bad);
        assert_ne!(bad, good, "{what}: the tamper must hit");
        let mut ens = ensemble().0;
        let err = import(&render(&bad), |lx| ens.import_state(lx)).expect_err(what);
        assert!(err.contains(expect), "{what}: {err}");
    }

    let mut ladder = ScoreDrilldown::new(EnsembleConfig::default().trigger);
    let good = Json::parse(&text(|out| ladder.export_state(out))).unwrap();
    let mut bad = good.clone();
    *at(&mut bad, &["phase"]) = Json::Str("rack".into());
    assert!(import(&render(&bad), |lx| ladder.import_state(lx))
        .unwrap_err()
        .contains("unknown phase"));
    let mut bad = good;
    *at(&mut bad, &["quiet"]) = Json::Int(1_000);
    assert!(import(&render(&bad), |lx| ladder.import_state(lx)).unwrap_err().contains("quiet"));
}

/// An entry is read in one pass whatever its member order: with `name`
/// first (as written) its state goes straight into the engine, with
/// `name` last it waits as text. Both import to the same ensemble, and
/// a tamper behind the name is refused either way.
#[test]
fn an_engine_entry_imports_in_any_member_order() {
    let (mut live, _) = ensemble();
    for i in &stream(5, 80, true) {
        live.observe(&i.ctx());
    }
    let written = text(|out| live.export_state(out));
    let mut name_last = Json::parse(&written).unwrap();
    let Json::Arr(entries) = at(&mut name_last, &["engines"]) else { unreachable!() };
    for entry in entries {
        let Json::Obj(members) = entry else { unreachable!() };
        members.rotate_left(1);
        assert_eq!(members.last().map(|(k, _)| k.as_str()), Some("name"));
    }
    let mut ens = ensemble().0;
    import(&render(&name_last), |lx| ens.import_state(lx)).expect("name last imports");
    assert_eq!(text(|out| ens.export_state(out)), written);

    for doc in [Json::parse(&written).unwrap(), name_last] {
        let mut bad = doc;
        *at(&mut bad, &["engines", "4", "state", "phase"]) = Json::Int(16);
        let mut ens = ensemble().0;
        let err = import(&render(&bad), |lx| ens.import_state(lx)).unwrap_err();
        assert!(err.contains("phase"), "{err}");
    }
}
