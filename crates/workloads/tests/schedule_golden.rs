//! Every `Schedule` generator's output, pinned.
//!
//! Each case hashes a generator's whole schedule at its default
//! parameters: FNV-1a 64 over every entry's time (little-endian) and
//! frame bytes, in schedule order. A change to how a schedule is laid
//! out in memory must leave every frame, time and position as it was,
//! so none of these may move; a change that means to move one says so
//! and re-pins it here.

use workloads::{
    CardinalitySpikeWorkload, EchoWorkload, LowSlowScanWorkload, PacketMixWorkload, Schedule,
    SeasonalDriftWorkload, SpikeWorkload, SynFloodWorkload, ZipfPrefixWorkload,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `(frames, hash)` of a schedule.
fn digest(schedule: &Schedule) -> (usize, u64) {
    let h = schedule.iter().fold(FNV_OFFSET, |h, (t, frame)| {
        fnv1a(fnv1a(h, &t.to_le_bytes()), frame)
    });
    (schedule.len(), h)
}

/// Generates `name`'s schedule at its default parameters and `seed`.
fn generate(name: &str, seed: u64) -> Schedule {
    match name {
        "cardinality" => CardinalitySpikeWorkload {
            seed,
            ..CardinalitySpikeWorkload::default()
        }
        .generate(),
        "echo" => {
            EchoWorkload {
                seed,
                ..EchoWorkload::default()
            }
            .generate()
            .0
        }
        "mix" => {
            PacketMixWorkload {
                seed,
                ..PacketMixWorkload::default()
            }
            .generate()
            .0
        }
        "portscan" => {
            LowSlowScanWorkload {
                seed,
                ..LowSlowScanWorkload::default()
            }
            .generate()
            .0
        }
        "seasonal" => SeasonalDriftWorkload {
            seed,
            ..SeasonalDriftWorkload::default()
        }
        .generate(),
        "spike" => {
            SpikeWorkload {
                seed,
                ..SpikeWorkload::default()
            }
            .generate()
            .0
        }
        "synflood" => {
            SynFloodWorkload {
                seed,
                ..SynFloodWorkload::default()
            }
            .generate()
            .0
        }
        "zipf" => {
            ZipfPrefixWorkload {
                seed,
                ..ZipfPrefixWorkload::default()
            }
            .generate()
            .0
        }
        _ => unreachable!("no generator {name}"),
    }
}

/// `(generator, seed, frames, FNV-1a 64)`.
const GOLDEN: [(&str, u64, usize, u64); 16] = [
    ("cardinality", 1, 10800, 0x0797a5d90ea699c2),
    ("cardinality", 7, 10800, 0x531f1ab5de510b91),
    ("echo", 1, 10000, 0xa98620e230fe48e3),
    ("echo", 7, 10000, 0x4a5a28af6660e197),
    ("mix", 1, 50000, 0x9ee9db326b8fd1e2),
    ("mix", 7, 50000, 0x448430723aa3fd5f),
    ("portscan", 1, 13890, 0x88565cfbcde60ca5),
    ("portscan", 7, 13890, 0x05f1a14065e3db37),
    ("seasonal", 1, 15360, 0x54e04a7aa0eece7f),
    ("seasonal", 7, 15360, 0x6edbbff28e45c3d9),
    ("spike", 1, 557284, 0x8fa8aa54813f426b),
    ("spike", 7, 672217, 0xe56c6c5c6a3ec1b7),
    ("synflood", 1, 176628, 0x80766fbbe7546a7d),
    ("synflood", 7, 176646, 0xc33885d8fbe19c25),
    ("zipf", 1, 100000, 0xe03f2d04d36162bd),
    ("zipf", 7, 100000, 0x83e404339293e105),
];

#[test]
fn every_generator_repeats_its_pinned_schedule() {
    let mut wrong = Vec::new();
    for &(name, seed, frames, hash) in &GOLDEN {
        let got = digest(&generate(name, seed));
        if got != (frames, hash) {
            wrong.push(format!(
                "{name} at seed {seed}: {} frames, {:#018x}; pinned {frames}, {hash:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "schedules moved:\n{}", wrong.join("\n"));
}
