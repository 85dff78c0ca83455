//! Seeded fault scripts: one reproducible failure schedule combining every
//! fault dimension the harness knows.
//!
//! A [`FaultScript`] is the unit of exploration: a workload length plus a
//! list of [`FaultEvent`]s keyed by request serial. Scripts are generated
//! deterministically from a seed, serialized to a line-oriented text format
//! (`rrq-fault-script v1`) so a failing schedule can be checked in as a
//! regression file, and re-run byte-for-byte identically by the explorer.

use crate::driver::CrashPoint;
use rrq_storage::disk::TornWriteMode;
use rrq_workload::arrivals::SplitMix;
use std::path::Path;

/// Which half of the client↔QM conversation a partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionDirection {
    /// Requests are cut; the QM can still answer (lost request).
    ClientToQm,
    /// Replies are cut; the QM hears and acts but cannot answer (lost ack —
    /// the operation commits server-side while the client sees a failure).
    QmToClient,
    /// Full bidirectional cut.
    Both,
}

impl PartitionDirection {
    const ALL: [PartitionDirection; 3] = [
        PartitionDirection::ClientToQm,
        PartitionDirection::QmToClient,
        PartitionDirection::Both,
    ];

    /// Stable codec/trace name.
    pub fn name(self) -> &'static str {
        match self {
            PartitionDirection::ClientToQm => "c2q",
            PartitionDirection::QmToClient => "q2c",
            PartitionDirection::Both => "both",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.name() == name)
    }
}

pub(crate) fn point_name(p: CrashPoint) -> &'static str {
    match p {
        CrashPoint::AfterSend => "after-send",
        CrashPoint::AfterReceive => "after-receive",
        CrashPoint::AfterProcess => "after-process",
    }
}

fn point_from_name(name: &str) -> Option<CrashPoint> {
    match name {
        "after-send" => Some(CrashPoint::AfterSend),
        "after-receive" => Some(CrashPoint::AfterReceive),
        "after-process" => Some(CrashPoint::AfterProcess),
        _ => None,
    }
}

/// One injected fault, anchored to the request serial it strikes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The client process dies at `point` while working serial `serial`.
    ClientCrash {
        /// Serial being processed when the crash fires.
        serial: u64,
        /// Fig 1 state at which the process dies.
        point: CrashPoint,
    },
    /// The server node crashes (and is restarted) after the send of
    /// `serial`; `torn` optionally leaves a corrupt WAL tail.
    ServerCrash {
        /// Serial whose send precedes the crash.
        serial: u64,
        /// Torn-write mode for the WAL devices, if any.
        torn: Option<TornWriteMode>,
    },
    /// The client↔QM link is cut before the send of `serial` and heals
    /// after `ops` failed client operations.
    Partition {
        /// Serial before whose send the cut happens.
        serial: u64,
        /// Which direction(s) to cut.
        direction: PartitionDirection,
        /// Failed client operations to ride out before healing.
        ops: u32,
    },
    /// Deliveries on the client↔QM links are delayed by `millis` for the
    /// duration of serial `serial`.
    Delay {
        /// Serial the delay covers.
        serial: u64,
        /// Delay per delivery, in milliseconds (kept well under the RPC
        /// timeout so a delay alone can never fail an operation).
        millis: u64,
    },
    /// One *repository partition*'s durable devices fail after the send of
    /// `serial`: its WAL group and checkpoint crash (optionally torn) while
    /// every sibling partition keeps its bytes. The node restarts and
    /// recovery must resolve any cross-partition transaction the dead
    /// partition had prepared, or had decided for siblings still in doubt.
    RepoCrash {
        /// Serial whose send precedes the crash.
        serial: u64,
        /// Repository partition to crash (`part % repo_partitions` at run
        /// time, so scripts stay valid at any partition count).
        part: u8,
        /// Torn-write mode for the partition's WAL devices, if any.
        torn: Option<TornWriteMode>,
    },
    /// The clerk↔QM link of *one repository partition's endpoint only* is
    /// cut before the send of `serial` and heals after `ops` failed client
    /// operations — the shared-nothing failure-isolation case: queues owned
    /// by every other partition stay reachable throughout.
    PartPartition {
        /// Serial before whose send the cut happens.
        serial: u64,
        /// Repository partition whose endpoint is cut (mod-clamped at run
        /// time).
        part: u8,
        /// Which direction(s) to cut.
        direction: PartitionDirection,
        /// Failed client operations to ride out before healing.
        ops: u32,
    },
}

impl FaultEvent {
    /// The serial this event is anchored to.
    pub fn serial(&self) -> u64 {
        match *self {
            FaultEvent::ClientCrash { serial, .. }
            | FaultEvent::ServerCrash { serial, .. }
            | FaultEvent::Partition { serial, .. }
            | FaultEvent::Delay { serial, .. }
            | FaultEvent::RepoCrash { serial, .. }
            | FaultEvent::PartPartition { serial, .. } => serial,
        }
    }

    fn encode_line(&self) -> String {
        match *self {
            FaultEvent::ClientCrash { serial, point } => {
                format!("client-crash {serial} {}", point_name(point))
            }
            FaultEvent::ServerCrash { serial, torn } => match torn {
                Some(mode) => format!("server-crash {serial} {}", mode.name()),
                None => format!("server-crash {serial}"),
            },
            FaultEvent::Partition {
                serial,
                direction,
                ops,
            } => format!("partition {serial} {} {ops}", direction.name()),
            FaultEvent::Delay { serial, millis } => format!("delay {serial} {millis}"),
            FaultEvent::RepoCrash { serial, part, torn } => match torn {
                Some(mode) => format!("repo-crash {serial} {part} {}", mode.name()),
                None => format!("repo-crash {serial} {part}"),
            },
            FaultEvent::PartPartition {
                serial,
                part,
                direction,
                ops,
            } => format!("part-partition {serial} {part} {} {ops}", direction.name()),
        }
    }
}

/// A complete, reproducible failure schedule for one explorer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScript {
    /// The seed this script was generated from (0 for hand-written ones).
    pub seed: u64,
    /// Workload length: transfer serials 1..=n_requests.
    pub n_requests: u64,
    /// The injected faults, in generation order.
    pub events: Vec<FaultEvent>,
}

const HEADER: &str = "rrq-fault-script v1";

/// Delay events stay well under the explorer's RPC timeout so a delay alone
/// can never fail an operation (which would make outcomes timing-dependent).
pub const MAX_DELAY_MILLIS: u64 = 40;

impl FaultScript {
    /// A script with no faults (the baseline happy path).
    pub fn quiet(n_requests: u64) -> Self {
        FaultScript {
            seed: 0,
            n_requests,
            events: Vec::new(),
        }
    }

    /// Generate the script for `seed`: 4–8 requests, 1–4 fault events drawn
    /// across all four dimensions. Pure function of the seed.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let n_requests = 4 + rng.next_u64() % 5;
        let n_events = 1 + rng.next_u64() % 4;
        let mut events = Vec::with_capacity(n_events as usize);
        for _ in 0..n_events {
            let serial = 1 + rng.next_u64() % n_requests;
            // Crashes are the paper's bread and butter: weight them higher
            // than network faults.
            events.push(match rng.next_u64() % 14 {
                0..=2 => FaultEvent::ClientCrash {
                    serial,
                    point: match rng.next_u64() % 3 {
                        0 => CrashPoint::AfterSend,
                        1 => CrashPoint::AfterReceive,
                        _ => CrashPoint::AfterProcess,
                    },
                },
                3..=5 => {
                    let torn = match rng.next_u64() % 4 {
                        0 => None,
                        1 => Some(TornWriteMode::Midway),
                        2 => Some(TornWriteMode::FullLengthCorrupt),
                        _ => Some(TornWriteMode::HeaderOnly),
                    };
                    FaultEvent::ServerCrash { serial, torn }
                }
                6..=8 => FaultEvent::Partition {
                    serial,
                    direction: PartitionDirection::ALL[(rng.next_u64() % 3) as usize],
                    ops: 1 + (rng.next_u64() % 3) as u32,
                },
                9 => FaultEvent::Delay {
                    serial,
                    millis: 5 + rng.next_u64() % (MAX_DELAY_MILLIS - 4),
                },
                // Partition-scoped faults: the part index is drawn over the
                // full device range and mod-clamped by the run's actual
                // partition count (at 1 partition they degrade to the
                // whole-node equivalents).
                10..=11 => FaultEvent::RepoCrash {
                    serial,
                    part: (rng.next_u64() % 8) as u8,
                    torn: match rng.next_u64() % 3 {
                        0 => Some(TornWriteMode::Midway),
                        _ => None,
                    },
                },
                _ => FaultEvent::PartPartition {
                    serial,
                    part: (rng.next_u64() % 8) as u8,
                    direction: PartitionDirection::ALL[(rng.next_u64() % 3) as usize],
                    ops: 1 + (rng.next_u64() % 3) as u32,
                },
            });
        }
        FaultScript {
            seed,
            n_requests,
            events,
        }
    }

    /// Serialize to the `rrq-fault-script v1` text format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("requests {}\n", self.n_requests));
        for e in &self.events {
            out.push_str(&e.encode_line());
            out.push('\n');
        }
        out
    }

    /// Parse the text format back. Errors name the offending line.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(format!("missing header line {HEADER:?}"));
        }
        let mut seed = None;
        let mut n_requests = None;
        let mut events = Vec::new();
        let bad = |line: &str, why: &str| format!("bad line {line:?}: {why}");
        for line in lines {
            let mut w = line.split_whitespace();
            let kind = w.next().unwrap_or("");
            let mut num = |name: &str| -> Result<u64, String> {
                w.next()
                    .ok_or_else(|| bad(line, &format!("missing {name}")))?
                    .parse::<u64>()
                    .map_err(|_| bad(line, &format!("{name} is not a number")))
            };
            match kind {
                "seed" => seed = Some(num("seed")?),
                "requests" => n_requests = Some(num("count")?),
                "client-crash" => {
                    let serial = num("serial")?;
                    let point = w
                        .next()
                        .and_then(point_from_name)
                        .ok_or_else(|| bad(line, "unknown crash point"))?;
                    events.push(FaultEvent::ClientCrash { serial, point });
                }
                "server-crash" => {
                    let serial = num("serial")?;
                    let torn = match w.next() {
                        None => None,
                        Some(name) => Some(
                            TornWriteMode::from_name(name)
                                .ok_or_else(|| bad(line, "unknown torn mode"))?,
                        ),
                    };
                    events.push(FaultEvent::ServerCrash { serial, torn });
                }
                "partition" => {
                    let serial = num("serial")?;
                    let direction = w
                        .next()
                        .and_then(PartitionDirection::from_name)
                        .ok_or_else(|| bad(line, "unknown direction"))?;
                    let ops = w
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(|| bad(line, "missing/bad ops count"))?;
                    events.push(FaultEvent::Partition {
                        serial,
                        direction,
                        ops,
                    });
                }
                "delay" => {
                    let serial = num("serial")?;
                    let millis = num("millis")?.min(MAX_DELAY_MILLIS);
                    events.push(FaultEvent::Delay { serial, millis });
                }
                "repo-crash" => {
                    let serial = num("serial")?;
                    let part = num("part")? as u8;
                    let torn = match w.next() {
                        None => None,
                        Some(name) => Some(
                            TornWriteMode::from_name(name)
                                .ok_or_else(|| bad(line, "unknown torn mode"))?,
                        ),
                    };
                    events.push(FaultEvent::RepoCrash { serial, part, torn });
                }
                "part-partition" => {
                    let serial = num("serial")?;
                    let part = num("part")? as u8;
                    let direction = w
                        .next()
                        .and_then(PartitionDirection::from_name)
                        .ok_or_else(|| bad(line, "unknown direction"))?;
                    let ops = w
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(|| bad(line, "missing/bad ops count"))?;
                    events.push(FaultEvent::PartPartition {
                        serial,
                        part,
                        direction,
                        ops,
                    });
                }
                other => return Err(bad(line, &format!("unknown event kind {other:?}"))),
            }
        }
        Ok(FaultScript {
            seed: seed.ok_or("missing `seed` line")?,
            n_requests: n_requests.ok_or("missing `requests` line")?,
            events,
        })
    }

    /// Write the encoded script to `path` (creating parent directories).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.encode())
    }

    /// Read and decode a script file.
    pub fn read_from(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_pure_in_the_seed() {
        for seed in 0..50 {
            assert_eq!(FaultScript::generate(seed), FaultScript::generate(seed));
        }
        // And not constant across seeds.
        assert_ne!(FaultScript::generate(1), FaultScript::generate(2));
    }

    #[test]
    fn generated_events_are_in_bounds() {
        for seed in 0..200 {
            let s = FaultScript::generate(seed);
            assert!((4..=8).contains(&s.n_requests), "seed {seed}");
            assert!((1..=4).contains(&s.events.len()), "seed {seed}");
            for e in &s.events {
                assert!(
                    (1..=s.n_requests).contains(&e.serial()),
                    "seed {seed}: {e:?}"
                );
                if let FaultEvent::Delay { millis, .. } = e {
                    assert!(*millis <= MAX_DELAY_MILLIS, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn codec_round_trips_generated_scripts() {
        for seed in 0..100 {
            let s = FaultScript::generate(seed);
            let decoded = FaultScript::decode(&s.encode()).unwrap();
            assert_eq!(s, decoded, "seed {seed}");
        }
    }

    #[test]
    fn codec_round_trips_every_event_shape() {
        let s = FaultScript {
            seed: 9,
            n_requests: 6,
            events: vec![
                FaultEvent::ClientCrash {
                    serial: 1,
                    point: CrashPoint::AfterReceive,
                },
                FaultEvent::ServerCrash {
                    serial: 2,
                    torn: None,
                },
                FaultEvent::ServerCrash {
                    serial: 3,
                    torn: Some(TornWriteMode::HeaderOnly),
                },
                FaultEvent::Partition {
                    serial: 4,
                    direction: PartitionDirection::QmToClient,
                    ops: 2,
                },
                FaultEvent::Delay {
                    serial: 5,
                    millis: 12,
                },
                FaultEvent::RepoCrash {
                    serial: 5,
                    part: 2,
                    torn: None,
                },
                FaultEvent::RepoCrash {
                    serial: 6,
                    part: 7,
                    torn: Some(TornWriteMode::Midway),
                },
                FaultEvent::PartPartition {
                    serial: 6,
                    part: 3,
                    direction: PartitionDirection::Both,
                    ops: 1,
                },
            ],
        };
        assert_eq!(FaultScript::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FaultScript::decode("not a script").is_err());
        assert!(FaultScript::decode("rrq-fault-script v1\nseed 1\n").is_err());
        assert!(FaultScript::decode(
            "rrq-fault-script v1\nseed 1\nrequests 3\nclient-crash 1 nowhere"
        )
        .is_err());
        assert!(FaultScript::decode("rrq-fault-script v1\nseed 1\nrequests 3\nwarp 1").is_err());
    }
}
