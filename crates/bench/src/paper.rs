//! The paper's own artefacts: Tables 2 and 3, the Sec. 3 validation
//! experiment, the Sec. 4 case study and resource analysis, and the
//! Figure 1 argument. Each function prints one paper-vs-measured
//! comparison and asserts the claims it reproduces exactly.

use crate::{max_f64, median_error_run, pct, percentile_f64, rule, run_unary};
use anomaly::drilldown::{DrilldownController, DrilldownPhase, DrilldownTopology};
use anomaly::polling::PollingController;
use netsim::host::{SinkHost, TraceGen, TrafficSource};
use netsim::{
    Node, NodeId, P4SwitchNode, RecordingController, Simulation, MICROS, MILLIS, SECONDS,
};
use p4sim::resources::analyze;
use p4sim::TargetModel;
use stat4_core::freq::FrequencyDist;
use stat4_core::isqrt::{approx_error_percent, approx_isqrt};
use stat4_core::percentile::{PercentileSet, Quantile};
use stat4_p4::{
    CaseStudyApp, CaseStudyHandles, CaseStudyParams, EchoApp, Stat4Config, DIGEST_ECHO,
};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use workloads::{EchoWorkload, Schedule, SpikeWorkload};

/// **Table 2**: percentage error in square-root estimation with respect
/// to the fractional square-root value, per input decade.
///
/// Sweeps every integer in each range through both the portable
/// implementation and the pipeline-IR implementation (they are asserted
/// identical), then prints measured 50th/90th/max percentage errors
/// next to the paper's claims. The paper's absolute numbers for the
/// upper decades are not attainable by any integer-output variant of
/// its Figure 2 algorithm (see EXPERIMENTS.md); the reproduced *shape*
/// is the rapid decay from the first decade to the interpolation
/// plateau.
pub fn table2() {
    // (lo, hi, paper p50, paper p90, paper max)
    let rows: [(u64, u64, &str, &str, &str); 4] = [
        (1, 10, "3%", "10%", "20%"),
        (10, 100, "0.4%", "1.4%", "3.8%"),
        (100, 1000, "<0.05%", "0.14%", "0.44%"),
        (1000, 10_000, "<0.01%", "<0.01%", "0.05%"),
    ];

    println!("Table 2 — percentage error of the shift-based integer square root");
    println!("(exhaustive sweep of every integer per range; error vs fractional sqrt)");
    rule(92);
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "input y", "p50 meas", "p90 meas", "max meas", "p50 paper", "p90 paper", "max paper"
    );
    rule(92);
    for (lo, hi, p50p, p90p, maxp) in rows {
        let errs: Vec<f64> = (lo..=hi).map(approx_error_percent).collect();
        println!(
            "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            format!("{lo}-{hi}"),
            pct(percentile_f64(&errs, 50.0)),
            pct(percentile_f64(&errs, 90.0)),
            pct(max_f64(&errs)),
            p50p,
            p90p,
            maxp
        );
    }
    rule(92);

    // Figure 2's worked example.
    let v = approx_isqrt(106);
    println!("Figure 2 worked example: approx_isqrt(106) = {v} (paper: 10)");
    assert_eq!(v, 10);

    // Cross-check: the pipeline-IR implementation agrees bit-for-bit.
    let mut pipe = crate::isqrt_pipeline();
    let samples: Vec<u64> = (0..100_000u64).step_by(37).collect();
    for &x in &samples {
        assert_eq!(
            run_unary(&mut pipe, &[x]).0,
            approx_isqrt(x),
            "IR and portable implementations diverge at {x}"
        );
    }
    println!(
        "IR cross-check: {} samples, pipeline == portable on every one",
        samples.len()
    );
}

/// **Table 3**: median estimation error for distributions of `N`
/// elements, over 20 repetitions per value of `N`, split into
/// before/after the first `N/2` samples.
///
/// For each repetition, uniform draws from `[1, N]` feed the
/// one-step-per-packet median tracker; the error at every packet is
/// `|estimate − exact median of the samples seen so far| / N` — high
/// while the distribution is sparse, collapsing once it fills in,
/// exactly the paper's qualitative claim ("always ≤1%, except early in
/// our simulations, when distributions are sparse").
pub fn table3() {
    // (N, samples per run, paper before-p50/p90, paper after-p50/p90)
    let rows: [(i64, usize, &str, &str, &str, &str); 3] = [
        (100, 2_000, "4.5%", "34.5%", "0%", "1%"),
        (1_000, 8_000, "3.6%", "29.6%", "0%", "0.1%"),
        (65_536, 196_608, "<1%", "23%", "0%", "0.01%"),
    ];
    const REPS: u64 = 20;

    println!("Table 3 — median estimation error (one marker step per packet)");
    println!("(20 repetitions per N; error = |estimate - exact running median| / N)");
    rule(108);
    println!(
        "{:<9} {:<22} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8}",
        "N",
        "example use case",
        "b-p50",
        "b-p90",
        "a-p50",
        "a-p90",
        "pb-p50",
        "pb-p90",
        "pa-p50",
        "pa-p90"
    );
    rule(108);
    for (n, samples, pb50, pb90, pa50, pa90) in rows {
        let mut before_all = Vec::new();
        let mut after_all = Vec::new();
        for rep in 0..REPS {
            let (b, a) = median_error_run(n, samples, 1000 + rep);
            before_all.extend(b);
            after_all.extend(a);
        }
        let case = match n {
            100 => "packet types",
            1_000 => "per-ms traffic",
            _ => "16-bit field",
        };
        println!(
            "{:<9} {:<22} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8}",
            n,
            case,
            pct(percentile_f64(&before_all, 50.0)),
            pct(percentile_f64(&before_all, 90.0)),
            pct(percentile_f64(&after_all, 50.0)),
            pct(percentile_f64(&after_all, 90.0)),
            pb50,
            pb90,
            pa50,
            pa90
        );
    }
    rule(108);
    println!("b- = before N/2 samples, a- = after; p* columns = paper's Table 3.");

    // Figure 3's register-level walk: the marker rests at 3 over this
    // distribution; the added 8 moves it one step, onto 4, and two more
    // packets' worth of steps (the empty cell 5 costing one) reach 6.
    let mut s = PercentileSet::new(1, 10, &[Quantile::median()]).expect("valid domain");
    for v in [[2; 10].as_slice(), &[3, 3, 6], &[9; 5], &[10; 6]].concat() {
        s.observe(v).expect("in domain");
    }
    s.observe(8).expect("in domain");
    let from = s.estimate(0).expect("seeded");
    let steps = s.rebalance_full();
    let to = s.estimate(0).expect("seeded");
    println!(
        "Figure 3 worked example: after an 8 the median marker moves {from} -> {to} in {steps} \
         packets (paper: 4 -> 6 in two)"
    );
    assert_eq!((from, to, steps), (4, 6, 2));
}

/// The **Sec. 3 validation experiment** (Figure 5): a host sends 10 000
/// Ethernet frames whose payload carries a random integer in
/// `[-255, 255]`; the switch tracks the integers' frequency
/// distribution and reports `(N, Xsum, Xsumsq, σ², σ)` for every packet;
/// the host recomputes everything in software and compares.
///
/// Paper's result: "in all our experiments (with up to 10,000 packets),
/// the values of N, Xsum, Xsumsq and σ²(NX) stored at the switch are
/// equal to those computed at the host." The reproduction asserts
/// exactly that, digest by digest.
pub fn validation() {
    let workload = EchoWorkload {
        packets: 10_000,
        gap_ns: 10_000,
        seed: 20,
    };
    let (schedule, values) = workload.generate();
    let app = EchoApp::build(&Stat4Config::default()).expect("echo app builds");

    let mut sim = Simulation::new();
    // The echo host sends the workload and counts the echoed replies
    // arriving back on the same port (TrafficSource::received).
    let host = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        schedule,
    )))));
    let unused_sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
    let controller = sim.add_node(Box::new(RecordingController::new()));
    let switch = sim.add_node(Box::new(
        P4SwitchNode::new(app.pipeline).with_controller(controller),
    ));
    sim.connect(host, 0, switch, 0, 10 * MICROS);
    sim.connect(switch, 1, unused_sink, 0, 10 * MICROS);
    sim.connect_control(switch, controller, 500 * MICROS);
    sim.run();

    let ctl = sim
        .node_as::<RecordingController>(controller)
        .expect("controller present");
    let echoes = sim
        .node_as::<TrafficSource>(host)
        .expect("host present")
        .received;
    println!("Validation experiment (Fig. 5): {} packets", values.len());
    println!(
        "digests received: {}, frames echoed back to host: {}",
        ctl.digests.len(),
        echoes
    );
    assert_eq!(echoes, values.len() as u64, "every frame echoed");
    assert_eq!(ctl.digests.len(), values.len(), "one digest per packet");

    // Host-side oracle: replay the same values through stat4-core.
    let mut oracle = FrequencyDist::new(-255, 255).expect("domain fits");
    let mut mismatches = 0u64;
    for ((_, _, digest), v) in ctl.digests.iter().zip(&values) {
        assert_eq!(digest.id, DIGEST_ECHO);
        oracle.observe(*v).expect("in range");
        let expect = [
            oracle.n_distinct(),
            oracle.xsum(),
            u64::try_from(oracle.xsumsq()).expect("fits"),
            u64::try_from(oracle.variance_nx()).expect("fits"),
            oracle.sd_nx(),
        ];
        if digest.values != expect {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "MISMATCH after value {v}: switch {:?} host {expect:?}",
                    digest.values
                );
            }
        }
    }
    println!(
        "switch-vs-host comparison: {} packets checked, {} mismatches",
        values.len(),
        mismatches
    );
    assert_eq!(mismatches, 0, "paper's result: exact equality");
    println!(
        "RESULT: N, Xsum, Xsumsq, var(NX), sd(NX) identical on every packet — matches the paper."
    );
}

/// The Sec. 4 test bench: a source replaying `schedule` into a switch
/// running `app`, a sink on the switch's port 1, and the controller
/// `controller` builds from the app's handles, a copy of its pipeline
/// and the switch's id, `ctrl_delay` away. The switch pushes its
/// digests to that controller (a poller ignores them). Returns the simulation, not yet run, and
/// the switch's and the controller's ids.
fn spike_bench(
    app: CaseStudyApp,
    schedule: Schedule,
    ctrl_delay: u64,
    controller: impl FnOnce(CaseStudyHandles, p4sim::Pipeline, NodeId) -> Box<dyn Node>,
) -> (Simulation, NodeId, NodeId) {
    let handles = app.handles();
    let mut sim = Simulation::new();
    let source = sim.add_node(Box::new(TrafficSource::new(Box::new(TraceGen::new(
        schedule,
    )))));
    let sink = sim.add_node(Box::new(SinkHost::new(Arc::new(AtomicU64::new(0)))));
    let switch = sim.add_node(Box::new(P4SwitchNode::new(app.pipeline.clone())));
    let controller = sim.add_node(controller(handles, app.pipeline, switch));
    sim.node_as_mut::<P4SwitchNode>(switch)
        .expect("switch")
        .controller = Some(controller);
    sim.connect(source, 0, switch, 0, 20 * MICROS);
    sim.connect(switch, 1, sink, 0, 20 * MICROS);
    sim.connect_control(switch, controller, ctrl_delay);
    (sim, switch, controller)
}

/// The push controller: drills down over 36 destinations in six /24s.
fn drilldown(handles: CaseStudyHandles, shadow: p4sim::Pipeline, switch: NodeId) -> Box<dyn Node> {
    let topology = DrilldownTopology {
        net: 10,
        subnets: 6,
        hosts_per_subnet: 6,
    };
    Box::new(DrilldownController::new(handles, shadow, switch, topology))
}

struct CaseStudyRun {
    detected: bool,
    detect_latency_intervals: f64,
    pinpointed: bool,
    correct_dest: bool,
    pinpoint_secs: f64,
}

fn casestudy_run(interval_log2: u32, window_size: u64, seed: u64, ctrl_delay: u64) -> CaseStudyRun {
    let interval_ns = 1u64 << interval_log2;
    let params = CaseStudyParams {
        interval_log2,
        window_size,
        min_intervals: (window_size / 2).clamp(4, 16),
        config: Stat4Config {
            counter_num: 2,
            counter_size: 256,
            width_bits: 64,
        },
        ..CaseStudyParams::default()
    };
    // Warm-up long enough to fill the check's minimum, spike afterwards,
    // then enough tail for two controller round trips + statistics.
    let warmup = interval_ns * (params.min_intervals + 6);
    let tail = 8 * ctrl_delay + 20 * interval_ns;
    let workload = SpikeWorkload {
        background_pps: (2_000_000_000 / interval_ns).clamp(2_000, 2_000_000),
        spike_multiplier: 10,
        spike_start_range: (warmup, warmup + interval_ns),
        duration: warmup + interval_ns + tail,
        seed,
        ..SpikeWorkload::default()
    };
    let (schedule, truth) = workload.generate();
    let app = CaseStudyApp::build(params).expect("app builds");
    let (mut sim, _, controller) = spike_bench(app, schedule, ctrl_delay, drilldown);
    sim.run();

    let ctl = sim
        .node_as::<DrilldownController>(controller)
        .expect("controller");
    let report = ctl.report;
    // Detection latency in interval units, measured at the switch (the
    // digest is emitted one control-delay before it arrives).
    let detect_latency_intervals = report
        .spike_alert_at
        .map(|at| {
            let emitted = at.saturating_sub(ctrl_delay);
            (emitted.saturating_sub(truth.spike_start)) as f64 / interval_ns as f64
        })
        .unwrap_or(f64::NAN);
    CaseStudyRun {
        detected: report.spike_alert_at.is_some(),
        detect_latency_intervals,
        pinpointed: matches!(ctl.phase, DrilldownPhase::Done { .. }),
        correct_dest: report.dest == Some(truth.spike_dest),
        pinpoint_secs: report
            .pinpoint_latency()
            .map(|ns| ns as f64 / SECONDS as f64)
            .unwrap_or(f64::NAN),
    }
}

/// The **Sec. 4 case study** (Figure 6): spike detection and drill-down
/// over a sweep of interval lengths and window sizes.
///
/// Paper's results: "in all the experiments, the switch detects the
/// traffic spike in the first interval after the start of the spike";
/// "correctly identifies the destination of the traffic spike";
/// "pinpointing the destination of each spike typically takes 2-3
/// seconds because of the interaction between the control and data
/// planes."
///
/// The sweep covers interval lengths from ~8 ms to ~2 s (powers of two:
/// the data plane derives the interval id by shifting the timestamp) and
/// windows of 10-100 intervals. Control-plane latency is modelled at
/// 400 ms one-way — the order of magnitude of bmv2 digest processing
/// plus P4Runtime table updates in the paper's test bench — which is
/// what stretches pinpointing into seconds while detection stays within
/// one interval.
pub fn casestudy() {
    let ctrl_delay = 400 * MILLIS;
    println!("Case study (Fig. 6): spike detection + drill-down sweep");
    println!("control-plane one-way delay: {} ms", ctrl_delay / MILLIS);
    rule(88);
    println!(
        "{:<12} {:<9} {:<6} | {:>9} {:>14} {:>10} {:>9} {:>10}",
        "interval", "window", "seed", "detected", "latency(ivls)", "pinpoint", "correct", "time(s)"
    );
    rule(88);

    let mut all_detected = true;
    let mut all_first_interval = true;
    let mut all_correct = true;
    let mut pinpoint_times = Vec::new();

    // Intervals ~8.4 ms .. ~2.1 s; windows 10..100 as in the paper.
    for &(interval_log2, label) in &[
        (23u32, "8.4ms"),
        (25, "33.6ms"),
        (28, "268ms"),
        (31, "2.15s"),
    ] {
        for &window in &[10u64, 50, 100] {
            // Keep the slowest configurations to one seed; they simulate
            // minutes of traffic.
            let seeds: &[u64] = if interval_log2 >= 28 {
                &[1]
            } else {
                &[1, 2, 3]
            };
            for &seed in seeds {
                let r = casestudy_run(interval_log2, window, seed, ctrl_delay);
                all_detected &= r.detected;
                // The alert is emitted when the spike's first interval
                // *closes* (i.e. on the first packet of the following
                // interval), so the latency is <= 1 interval plus one
                // inter-packet gap.
                all_first_interval &= r.detect_latency_intervals <= 1.25;
                all_correct &= r.pinpointed && r.correct_dest;
                if r.pinpointed {
                    pinpoint_times.push(r.pinpoint_secs);
                }
                println!(
                    "{:<12} {:<9} {:<6} | {:>9} {:>14.2} {:>10} {:>9} {:>10.2}",
                    label,
                    window,
                    seed,
                    r.detected,
                    r.detect_latency_intervals,
                    r.pinpointed,
                    r.correct_dest,
                    r.pinpoint_secs
                );
            }
        }
    }
    rule(88);
    let lo = pinpoint_times.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = pinpoint_times.iter().copied().fold(0.0f64, f64::max);
    println!(
        "paper: detection in the first interval after onset  -> reproduced: {all_first_interval}"
    );
    println!("paper: destination correctly identified             -> reproduced: {all_correct}");
    println!("paper: pinpointing typically takes 2-3 s             -> measured: {lo:.2}-{hi:.2} s");
    assert!(all_detected && all_first_interval && all_correct);
}

/// The **Sec. 4 resource-consumption analysis**: memory footprint,
/// match-action dependencies and the longest sequential dependency
/// chain of the case-study application.
///
/// Paper's numbers: "the case-study application occupies 3.1KB. It
/// entails at most one dependency between match-action rules, since at
/// most two rules with independent actions match each packet. The
/// longest dependency chain in our code has 12 sequential steps, used to
/// override the oldest counter in distributions of traffic over time."
pub fn resources() {
    // Paper-equivalent sizing: the drill-down distribution needs at
    // most 36 groups; 100-interval window; one tracked distribution.
    let params = CaseStudyParams {
        window_size: 100,
        config: Stat4Config {
            counter_num: 1,
            counter_size: 64,
            width_bits: 32,
        },
        ..CaseStudyParams::default()
    };
    let app = CaseStudyApp::build(params).expect("app builds");
    let report = analyze(&app.pipeline);

    println!("Case-study application resource report");
    rule(72);
    println!("{report}");
    rule(72);
    println!("per-register breakdown:");
    for (name, bytes) in &report.registers {
        println!("  {name:<22} {bytes:>8} B");
    }
    println!("per-table breakdown (at declared capacity):");
    for (name, bytes) in &report.tables {
        println!("  {name:<22} {bytes:>8} B");
    }
    println!("per-action critical paths (top 8):");
    for (name, steps) in report.action_chains.iter().take(8) {
        println!("  {name:<22} {steps:>8} steps");
    }
    rule(72);
    println!(
        "paper: application occupies 3.1 KB          -> measured: {:.1} KB",
        report.total_kb()
    );
    println!(
        "paper: at most 1 match-action dependency    -> measured: {}",
        report.match_dependencies
    );
    let longest_fragment = report
        .action_chains
        .iter()
        .filter(|(n, _)| !n.starts_with("isqrt"))
        .max_by_key(|(_, s)| *s)
        .cloned()
        .unwrap_or_default();
    println!(
        "paper: longest dependency chain 12 steps    -> measured: {} steps ('{}', the analogous \
         stateful update fragment); the sqrt fragment alone is {} steps (its 7-step MSB \
         if-cascade included), and the conservative whole-packet worst path sums to {}",
        longest_fragment.1,
        longest_fragment.0,
        report
            .action_chains
            .iter()
            .find(|(n, _)| n.starts_with("isqrt_main"))
            .map(|(_, s)| *s)
            .unwrap_or(0),
        report.longest_chain_steps
    );
    // The stage count is checked against the program's build target,
    // bmv2, which has no stage limit; the hardware model's limit is
    // printed beside it, not checked.
    let stage_limit = |t: &TargetModel| match t.max_stages {
        u32::MAX => format!("{}: no stage limit", t.name),
        n => format!("{}: {n} stages", t.name),
    };
    println!(
        "paper: deployable in >10-stage pipelines    -> estimated stages: {} ({} on {}; {})",
        report.stage_estimate,
        if report.fits_target {
            "fits"
        } else {
            "does not fit"
        },
        stage_limit(app.pipeline.target()),
        stage_limit(&TargetModel::tofino_like())
    );

    // The echo/validation app for comparison.
    let echo = EchoApp::build(&Stat4Config::default()).expect("echo builds");
    let echo_report = analyze(&echo.pipeline);
    rule(72);
    println!(
        "echo app (validation, 4x512-cell distributions): {:.1} KB, chain {} steps",
        echo_report.total_kb(),
        echo_report.longest_chain_steps
    );
}

/// The Figure 1 runs' control-channel leg and interval (~8.4 ms, the
/// paper's default).
const ARCH_CTRL_DELAY: u64 = 2 * MILLIS;
const ARCH_INTERVAL_LOG2: u32 = 23;

fn arch_app() -> CaseStudyApp {
    CaseStudyApp::build(CaseStudyParams {
        interval_log2: ARCH_INTERVAL_LOG2,
        window_size: 100,
        min_intervals: 16,
        config: Stat4Config {
            counter_num: 2,
            counter_size: 64,
            width_bits: 64,
        },
        ..CaseStudyParams::default()
    })
    .expect("builds")
}

struct ArchRun {
    detect_latency_ms: f64,
    messages: u64,
    cells: u64,
    msgs_per_sec: f64,
}

/// Runs one Figure 1 architecture on the spike workload: `pull` polls
/// every given period, `None` pushes. The run is capped at the
/// workload's duration so overhead normalisation is fair (a poller
/// would otherwise poll an idle network forever).
fn arch_run(pull: Option<u64>) -> ArchRun {
    let interval_ns = 1u64 << ARCH_INTERVAL_LOG2;
    let workload = SpikeWorkload {
        background_pps: 20_000,
        spike_multiplier: 10,
        spike_start_range: (25 * interval_ns, 26 * interval_ns),
        duration: 80 * interval_ns,
        seed: 21,
        ..SpikeWorkload::default()
    };
    let (schedule, truth) = workload.generate();
    let duration = workload.duration;
    let latency_ms =
        |at: Option<u64>| at.map_or(f64::NAN, |at| (at - truth.spike_start) as f64 / 1e6);
    let per_sec = |messages: u64| messages as f64 / (duration as f64 / 1e9);
    if let Some(period) = pull {
        let (mut sim, _, poller) = spike_bench(arch_app(), schedule, ARCH_CTRL_DELAY, |h, _, s| {
            Box::new(PollingController::new(h, s, period))
        });
        sim.run_until(duration);
        let p = sim.node_as::<PollingController>(poller).expect("poller");
        let messages = p.requests_sent * 2; // request + response
        ArchRun {
            detect_latency_ms: latency_ms(p.detected_at),
            messages,
            cells: p.cells_read,
            msgs_per_sec: per_sec(messages),
        }
    } else {
        let (mut sim, switch, controller) =
            spike_bench(arch_app(), schedule, ARCH_CTRL_DELAY, drilldown);
        sim.run_until(duration);
        let c = sim
            .node_as::<DrilldownController>(controller)
            .expect("controller");
        let digests = sim
            .node_as::<P4SwitchNode>(switch)
            .expect("switch")
            .digests_sent;
        ArchRun {
            detect_latency_ms: latency_ms(c.report.spike_alert_at),
            messages: digests,
            cells: 0,
            msgs_per_sec: per_sec(digests),
        }
    }
}

/// The paper's **Figure 1 argument**, quantified: the sketch-only pull
/// architecture (Fig. 1b) vs in-switch detection with pushed alerts
/// (Fig. 1c), on identical traffic, identical detection logic,
/// identical control-channel latency — only the *placement* of the
/// check differs.
///
/// The paper: "for any sketch-only system, a delay is inevitable
/// between when a traffic change is theoretically detectable and when
/// the system is actually able to detect the change: this delay is
/// inversely proportional to the generated overhead." The sweep
/// measures exactly that curve (pull period → detection latency +
/// messages + register cells transferred) and the push architecture's
/// single point (one digest, ~zero standing overhead).
pub fn architecture() {
    println!("Figure 1 architectures, quantified (same traffic, same check, 2 ms control RTT leg,");
    println!("~8.4 ms intervals, 100-interval window; spike of 10x at a random time)");
    rule(88);
    println!(
        "{:<28} {:>14} {:>12} {:>14} {:>12}",
        "architecture", "latency (ms)", "messages", "cells pulled", "msgs/sec"
    );
    rule(88);
    let print = |label: &str, r: &ArchRun| {
        println!(
            "{:<28} {:>14.1} {:>12} {:>14} {:>12.1}",
            label, r.detect_latency_ms, r.messages, r.cells, r.msgs_per_sec
        );
    };
    for period in [
        5 * MILLIS,
        10 * MILLIS,
        50 * MILLIS,
        100 * MILLIS,
        500 * MILLIS,
    ] {
        print(
            &format!("pull every {} ms", period / MILLIS),
            &arch_run(Some(period)),
        );
    }
    let push = arch_run(None);
    print("push (in-switch, Fig. 1c)", &push);
    println!(
        "{:<28} (every push message is an anomaly digest emitted *after* onset; during the",
        ""
    );
    println!(
        "{:<28} anomaly-free warm-up the push architecture sends zero messages)",
        ""
    );
    rule(88);
    println!(
        "the paper's claim, measured: pull latency ≈ interval + poll period + RTT and its \
         overhead grows as the period shrinks (inverse proportionality), while the push \
         architecture detects at interval close + one-way delay with zero standing overhead."
    );
    assert!(push.detect_latency_ms < 15.0, "push: first interval + 2 ms");
}
