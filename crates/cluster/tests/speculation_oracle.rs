//! Pinned bits of [`resolve_faults`] with speculation on, at task counts
//! where the speculation phase's running median dominates its cost.
//!
//! Each task's backup decision reads the median of every earlier task's
//! final duration, so a faster way to keep that median must reproduce
//! it exactly: over repeated durations, zeros (a zero median launches no
//! backup), even-length prefixes (the mean of the two middle values),
//! and durations already stretched by retries and node crashes. The
//! pins below are `f64::to_bits` patterns and counts from the direct
//! implementation that sorts each prefix.

use ipso_cluster::{resolve_faults, FaultModel, FaultOutcome, RecoveryEventKind, RecoveryPolicy};
use ipso_sim::SimRng;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `n` task durations from `seed`: a zero-length start, then a mix of
/// zeros, a few values that repeat, uniform draws, and stragglers that
/// a backup either beats (beyond 2.5 × the median) or does not.
fn durations(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            if i < 5 {
                return 0.0;
            }
            match rng.index(10) {
                0 => 0.0,
                1..=4 => [1.0, 2.0, 2.0, 2.5][rng.index(4)],
                5..=7 => rng.uniform(0.5, 4.0),
                8 => 4.0,
                _ => 9.0,
            }
        })
        .collect()
}

/// What the pins cover: digests of the effective durations' bits, the
/// attempts and the recovery events, the summary's counts, and its
/// wasted-work bits.
#[derive(Debug, PartialEq)]
struct Pins {
    durations: u64,
    attempts: u64,
    events: u64,
    /// Attempts, retries, node crashes, outputs lost, speculative
    /// launches and speculative wins.
    counts: [u32; 6],
    /// Retry, crash and speculation wasted seconds.
    wasted: [u64; 3],
}

fn pins(out: &FaultOutcome) -> Pins {
    let s = &out.summary;
    let events = s.events.iter().flat_map(|e| {
        let (tag, a, b) = match e.kind {
            RecoveryEventKind::AttemptFailed {
                attempt,
                lost_s,
                backoff_s,
            } => (u64::from(attempt), lost_s.to_bits(), backoff_s.to_bits()),
            RecoveryEventKind::OutputLost { node, recompute_s } => {
                (1 << 32 | u64::from(node), recompute_s.to_bits(), 0)
            }
            RecoveryEventKind::Speculated {
                backup_won,
                wasted_s,
            } => (2 << 32 | u64::from(backup_won), wasted_s.to_bits(), 0),
        };
        [u64::from(e.task), tag, a, b]
    });
    Pins {
        durations: fnv(out.durations.iter().map(|d| d.to_bits())),
        attempts: fnv(out.attempts.iter().map(|&a| u64::from(a))),
        events: fnv(events),
        counts: [
            s.attempts,
            s.retries,
            s.node_crashes,
            s.outputs_lost,
            s.speculative_launches,
            s.speculative_wins,
        ],
        wasted: [s.retry_wasted_s, s.crash_wasted_s, s.speculation_wasted_s].map(f64::to_bits),
    }
}

fn speculating(max_attempts: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts,
        ..RecoveryPolicy::hadoop_like().with_speculation()
    }
}

#[test]
fn fault_free_speculation_matches_pinned_bits() {
    let durations = durations(512, 1);
    let mut rng = SimRng::seed_from(2);
    let out = resolve_faults(
        &durations,
        64,
        &FaultModel::none(),
        &speculating(4),
        &mut rng,
    )
    .unwrap();
    let s = &out.summary;
    assert!(s.speculative_wins > 0 && s.speculative_wins < s.speculative_launches);
    assert_eq!(
        pins(&out),
        Pins {
            durations: 0x81701872fa116707,
            attempts: 0x1e04135948932b4c,
            events: 0x4f799e9628e98010,
            counts: [665, 0, 0, 0, 153, 78],
            // 415.92 s wasted by losing copies.
            wasted: [0, 0, 0x4079fec597b1d68d],
        }
    );
}

#[test]
fn flaky_crashing_speculation_matches_pinned_bits() {
    let durations = durations(1024, 3);
    let faults = FaultModel {
        node_crash_prob: 0.05,
        ..FaultModel::flaky(0.05)
    };
    let mut rng = SimRng::seed_from(4);
    let out = resolve_faults(&durations, 128, &faults, &speculating(12), &mut rng).unwrap();
    let s = &out.summary;
    assert!(s.retries > 0 && s.node_crashes > 0);
    assert!(s.speculative_wins > 0 && s.speculative_wins < s.speculative_launches);
    assert_eq!(
        pins(&out),
        Pins {
            durations: 0x4a267dda716c4196,
            attempts: 0xabdc106acc07cc99,
            events: 0xc928fc05d82ade05,
            counts: [1468, 65, 5, 40, 339, 135],
            // 63.26 s, 57.54 s and 801.09 s.
            wasted: [0x404fa0abdde1276d, 0x404cc4a10e143a16, 0x408908b9b14199d3],
        }
    );
}
