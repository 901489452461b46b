//! The four workloads: inputs made from a seed, the program under
//! test, the reference answer computed at set-up, and one rep.
//!
//! Why these four is argued in `benchmark/README.md`; the short form
//! is on each constructor.

use std::path::{Path, PathBuf};
use std::time::Instant;

use faultinject::FaultSchedule;
use p4sim::pipeline::DigestRecord;
use p4sim::{Pipeline, PipelineState};
use replay::{
    reference, render_outcome_json, resume_from_checkpoint, run_replay_lifecycle,
    run_replay_with_faults, LifecyclePlan, LifecycleReport, ReplayConfig, ReplayOutcome,
};
use stat4_p4::{CaseStudyApp, CaseStudyParams, DIGEST_SPIKE};
use workloads::{Schedule, SeasonalDriftWorkload, SpikeWorkload, SynFloodWorkload};

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "dense_1shard",
    "sparse_2shard",
    "p4_casestudy",
    "lifecycle_2shard",
];

const MS: u64 = 1_000_000;

/// The chaos `lifecycle_2shard` runs under. The fault seed is part of
/// the workload's definition, like the spec: `--seed` varies the
/// frames, not which epoch reports are lost, so the detection delay
/// under loss is the same on every seed.
const CHAOS: &str = "shard_crash=1@3,ctrl_loss=0.30";
const CHAOS_SEED: u64 = 42;

/// When the ground-truth anomaly was first detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Simulated time from onset to detection.
    pub delay_ns: u64,
    /// The same in detector intervals, rounded up (never 0).
    pub epochs: u64,
}

impl Detection {
    fn new(onset_ns: u64, at_ns: u64, interval_ns: u64) -> Self {
        let delay_ns = at_ns - onset_ns;
        Self {
            delay_ns,
            epochs: delay_ns.div_ceil(interval_ns).max(1),
        }
    }
}

/// One timed call of a workload's entry point and its verdict.
pub struct Rep {
    pub wall_s: f64,
    /// The detection, or why the rep counts as failed.
    pub verdict: Result<Detection, String>,
}

pub enum Workload {
    Replay(Box<ReplayWorkload>),
    P4(Box<P4Workload>),
}

impl Workload {
    /// Generates the inputs from `seed`, builds the program, computes
    /// the reference answer and runs one warm-up rep. `scratch` is a
    /// directory the workload may create, fill and delete.
    ///
    /// # Errors
    ///
    /// An unknown name, or a warm-up rep that fails its own check.
    pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Self, String> {
        let w = match name {
            "dense_1shard" => Self::Replay(Box::new(ReplayWorkload::dense(seed))),
            "sparse_2shard" => Self::Replay(Box::new(ReplayWorkload::sparse(seed))),
            "lifecycle_2shard" => Self::Replay(Box::new(ReplayWorkload::lifecycle(seed, scratch))),
            "p4_casestudy" => Self::P4(Box::new(P4Workload::new(seed)?)),
            _ => {
                return Err(format!(
                    "unknown workload {name:?} (have: {})",
                    NAMES.join(", ")
                ))
            }
        };
        w.rep()
            .verdict
            .map_err(|e| format!("warm-up rep failed: {e}"))?;
        Ok(w)
    }

    #[must_use]
    pub fn frames(&self) -> usize {
        match self {
            Self::Replay(w) => w.schedule.len(),
            Self::P4(w) => w.schedule.len(),
        }
    }

    #[must_use]
    pub fn rep(&self) -> Rep {
        match self {
            Self::Replay(w) => match w.run() {
                Ok(run) => Rep {
                    wall_s: run.wall_s,
                    verdict: w.verify(&run),
                },
                Err(e) => Rep {
                    wall_s: 0.0,
                    verdict: Err(e),
                },
            },
            Self::P4(w) => {
                let run = w.run();
                Rep {
                    wall_s: run.wall_s,
                    verdict: w.verify(&run),
                }
            }
        }
    }
}

// ---- replay workloads -------------------------------------------------

/// Checkpoint cadence and kill point of `lifecycle_2shard`.
pub struct LifecycleShape {
    pub checkpoint_every: u64,
    pub kill_at_epoch: u64,
    /// Fresh per rep: created before the timed window, removed after.
    pub dir: PathBuf,
}

pub struct ReplayWorkload {
    pub schedule: Schedule,
    pub cfg: ReplayConfig,
    pub faults_spec: &'static str,
    pub faults: FaultSchedule,
    /// Ground-truth anomaly onset (simulated ns).
    pub onset_ns: u64,
    pub lifecycle: Option<LifecycleShape>,
    /// `render_outcome_json` of the reference engine on this input.
    pub expected_snapshot: String,
    /// Wall time of that reference run.
    pub reference_s: f64,
}

/// What one rep of a replay workload produced.
pub struct ReplayRun {
    pub wall_s: f64,
    pub out: ReplayOutcome,
    /// `(killed run, resumed run)` reports of a lifecycle rep.
    pub reports: Option<(LifecycleReport, LifecycleReport)>,
}

impl ReplayWorkload {
    /// ≈1.1 M frames in 91 epochs of ≈12 000 on one shard: per-packet
    /// work (parse, route, five tracker updates) is most of the run and
    /// per-epoch work is noise. Coordinator + one worker = 2 threads.
    fn dense(seed: u64) -> Self {
        let w = SynFloodWorkload {
            background_cps: 20_000,
            flood_pps: 2_000_000,
            flood_start: 400 * MS,
            duration: 900 * MS,
            seed,
            ..SynFloodWorkload::default()
        };
        Self::prepare(w.generate().0, 1, "", w.flood_start, None)
    }

    fn seasonal(seed: u64, duration: u64) -> (Schedule, u64) {
        let w = SeasonalDriftWorkload {
            duration,
            drift_start: duration / 2,
            seed,
            ..SeasonalDriftWorkload::default()
        };
        (w.generate(), w.aligned_drift_start())
    }

    /// ≈240 000 frames in 2 000 epochs of 60–180 on two shards: the
    /// per-epoch fixed cost (dispatch round-trip, delta take/apply,
    /// ensemble, provenance) is most of the run; the trackers do
    /// little, and the workers idle most of each epoch.
    fn sparse(seed: u64) -> Self {
        let (schedule, onset) = Self::seasonal(seed, 20_000 * MS);
        Self::prepare(schedule, 2, "", onset, None)
    }

    /// The sparse generator at half length, under chaos, killed at
    /// epoch 750 of 1 000 and resumed from the last of its checkpoints:
    /// the same coordinator writing beside reading.
    fn lifecycle(seed: u64, scratch: &Path) -> Self {
        let (schedule, onset) = Self::seasonal(seed, 10_000 * MS);
        let shape = LifecycleShape {
            checkpoint_every: 100,
            kill_at_epoch: 750,
            dir: scratch.join("ckpt"),
        };
        Self::prepare(schedule, 2, CHAOS, onset, Some(shape))
    }

    fn prepare(
        schedule: Schedule,
        shards: usize,
        faults_spec: &'static str,
        onset_ns: u64,
        lifecycle: Option<LifecycleShape>,
    ) -> Self {
        let cfg = ReplayConfig {
            shards,
            ..ReplayConfig::default()
        };
        let faults = FaultSchedule::parse(faults_spec, CHAOS_SEED)
            .expect("the harness's own fault spec parses");
        let t0 = Instant::now();
        let reference = reference::run_replay_with_faults(&schedule, &cfg, &faults);
        let reference_s = t0.elapsed().as_secs_f64();
        Self {
            expected_snapshot: render_outcome_json(&reference),
            reference_s,
            schedule,
            cfg,
            faults_spec,
            faults,
            onset_ns,
            lifecycle,
        }
    }

    /// One rep: `run_replay` (as `run_replay_with_faults`, which it
    /// wraps), or for the lifecycle shape a checkpointing run killed at
    /// its drain point and then resumed to completion.
    ///
    /// # Errors
    ///
    /// The scratch directory cannot be prepared, or the resume fails.
    pub fn run(&self) -> Result<ReplayRun, String> {
        let Some(shape) = &self.lifecycle else {
            let t0 = Instant::now();
            let out = run_replay_with_faults(&self.schedule, &self.cfg, &self.faults);
            return Ok(ReplayRun {
                wall_s: t0.elapsed().as_secs_f64(),
                out,
                reports: None,
            });
        };
        // A missing directory is the expected case; any other failure
        // shows up in `create_dir_all`.
        let _ = std::fs::remove_dir_all(&shape.dir);
        std::fs::create_dir_all(&shape.dir)
            .map_err(|e| format!("cannot create {}: {e}", shape.dir.display()))?;
        let resume_plan = LifecyclePlan {
            checkpoint_dir: Some(shape.dir.clone()),
            checkpoint_every: shape.checkpoint_every,
            faults_spec: self.faults_spec.to_string(),
            ..LifecyclePlan::none()
        };
        let kill_plan = LifecyclePlan {
            kill_at_epoch: Some(shape.kill_at_epoch),
            ..resume_plan.clone()
        };
        let t0 = Instant::now();
        let (_, killed) = run_replay_lifecycle(&self.schedule, &self.cfg, &self.faults, &kill_plan);
        let (out, resumed) = resume_from_checkpoint(&self.schedule, &self.cfg, &resume_plan)?;
        Ok(ReplayRun {
            wall_s: t0.elapsed().as_secs_f64(),
            out,
            reports: Some((killed, resumed)),
        })
    }

    /// A rep passes when its snapshot equals the reference engine's,
    /// a lifecycle rep really was interrupted after a checkpoint, and
    /// the anomaly was detected after its onset.
    ///
    /// # Errors
    ///
    /// The first of those conditions that does not hold.
    pub fn verify(&self, run: &ReplayRun) -> Result<Detection, String> {
        if render_outcome_json(&run.out) != self.expected_snapshot {
            return Err(String::from(
                "run snapshot differs from the reference engine's",
            ));
        }
        if let Some((killed, resumed)) = &run.reports {
            if killed.checkpoints_written == 0 {
                return Err(String::from("no checkpoint was written before the kill"));
            }
            if resumed.resumed_from.is_none() {
                return Err(String::from(
                    "the second run did not resume from a checkpoint",
                ));
            }
        }
        self.detection(&run.out)
    }

    /// First engine fire for an interval that ends after the onset.
    /// (Under report loss Holt-Winters also fires before the drift;
    /// those fires are not detections of it.)
    fn detection(&self, out: &ReplayOutcome) -> Result<Detection, String> {
        out.ensemble
            .fired
            .iter()
            .find(|r| r.fired && r.at > self.onset_ns)
            .map(|r| Detection::new(self.onset_ns, r.at, self.cfg.detector.interval_ns))
            .ok_or_else(|| String::from("no engine fired after the anomaly's onset"))
    }
}

// ---- the P4 case study ------------------------------------------------

pub struct P4Workload {
    pub schedule: Schedule,
    /// Ground-truth spike onset (simulated ns).
    pub onset_ns: u64,
    pub interval_ns: u64,
    /// The freshly built program; every rep runs a clone.
    pub pipeline: Pipeline,
    /// Wall time of `CaseStudyApp::build`.
    pub build_s: f64,
    /// The first run's observable behaviour; every rep must repeat it.
    pub expected: P4Observed,
}

/// Everything observable about one pass of the schedule through the
/// case-study program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P4Observed {
    /// `(frame time, digest)` in emission order.
    pub digests: Vec<(u64, DigestRecord)>,
    pub state: PipelineState,
    /// Interpreter steps over all frames.
    pub steps: u64,
}

pub struct P4Run {
    pub wall_s: f64,
    pub observed: P4Observed,
}

impl P4Workload {
    /// ≈120 000 frames, one `Pipeline::process_frame` each, single
    /// thread: `p4sim` and `stat4-p4` do all the work and `replay`
    /// none. The paper's actual subject, and the control for every
    /// replay-side change.
    fn new(seed: u64) -> Result<Self, String> {
        let (schedule, truth) = SpikeWorkload {
            background_pps: 100_000,
            duration: 200 * MS,
            spike_start_range: (100 * MS, 110 * MS),
            seed,
            ..SpikeWorkload::default()
        }
        .generate();
        let params = CaseStudyParams::default();
        let t0 = Instant::now();
        let app = CaseStudyApp::build(params).map_err(|e| format!("case-study build: {e}"))?;
        let build_s = t0.elapsed().as_secs_f64();
        let expected = observe(&app.pipeline, &schedule).observed;
        Ok(Self {
            schedule,
            onset_ns: truth.spike_start,
            interval_ns: 1 << params.interval_log2,
            pipeline: app.pipeline,
            build_s,
            expected,
        })
    }

    /// One rep: every frame through a clone of the built pipeline.
    #[must_use]
    pub fn run(&self) -> P4Run {
        observe(&self.pipeline, &self.schedule)
    }

    /// A rep passes when it repeats the first run's digests, registers
    /// and step count, and a `DIGEST_SPIKE` follows the real spike.
    ///
    /// # Errors
    ///
    /// The first of those conditions that does not hold.
    pub fn verify(&self, run: &P4Run) -> Result<Detection, String> {
        if run.observed != self.expected {
            return Err(String::from(
                "digests, registers or steps differ from the first run's",
            ));
        }
        run.observed
            .digests
            .iter()
            .find(|(t, d)| d.id == DIGEST_SPIKE && *t >= self.onset_ns)
            .map(|(t, _)| Detection::new(self.onset_ns, *t, self.interval_ns))
            .ok_or_else(|| String::from("no DIGEST_SPIKE after the ground-truth spike"))
    }
}

/// Runs every frame through a clone of `pipeline`, one `process_frame`
/// each. The clone is made outside the timed window (it is its own
/// per-layer metric).
///
/// # Panics
///
/// Panics if the interpreter rejects a generated frame, which the
/// case-study program never does.
fn observe(pipeline: &Pipeline, schedule: &Schedule) -> P4Run {
    let mut pipeline = pipeline.clone();
    let mut digests = Vec::new();
    let mut steps = 0u64;
    let t0 = Instant::now();
    for (t, frame) in schedule {
        let (_, outcome) = pipeline
            .process_frame(frame, 1, *t)
            .expect("the case-study program accepts every generated frame");
        steps += outcome.steps;
        digests.extend(outcome.digests.into_iter().map(|d| (*t, d)));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    P4Run {
        wall_s,
        observed: P4Observed {
            digests,
            state: pipeline.export_state(),
            steps,
        },
    }
}
