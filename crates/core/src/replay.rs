//! Trace-driven replay: a small discrete-event simulator executing an
//! MPI-like event trace on top of the instantiated models.
//!
//! The paper's Figure 1 context is exactly this pipeline: MPIDtrace
//! records an application as "a series of sequential computation blocks
//! interleaved with MPI calls", and a discrete-event simulator (DIMEMAS
//! in PMaC, SimGrid in the authors' own work) replays it against the
//! machine signature. [`replay`] is that simulator for two-sided
//! point-to-point traces: per-rank virtual clocks, blocking/eager
//! semantics from the instantiated network model, compute blocks from the
//! memory model. Unlike the closed-form [`crate::convolution`], replay
//! captures *waiting time* — a receiver blocked on a late sender — which
//! simple convolution cannot.

use crate::models::{MemoryModel, NetworkModel};
use std::collections::VecDeque;

/// One traced event on a rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Local computation touching `bytes` with the given working set.
    Compute {
        /// Bytes touched.
        bytes: f64,
        /// Working-set size (bytes).
        working_set: u64,
    },
    /// Send `size` bytes to `peer` (asynchronous: sender pays its
    /// overhead, message arrives after the one-way time).
    Send {
        /// Destination rank.
        peer: usize,
        /// Message size (bytes).
        size: u64,
    },
    /// Blocking receive of the next message from `peer`.
    Recv {
        /// Source rank.
        peer: usize,
    },
}

/// A per-rank event trace.
pub(crate) type Trace = Vec<Event>;

/// Replay outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Finish time of each rank (µs).
    pub rank_finish_us: Vec<f64>,
    /// Total time each rank spent blocked in receives (µs).
    pub rank_wait_us: Vec<f64>,
}

impl ReplayResult {
    /// Makespan: the last rank's finish time.
    pub fn makespan_us(&self) -> f64 {
        self.rank_finish_us.iter().cloned().fold(0.0, f64::max)
    }
}

/// Errors during replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// A receive waits for a message that is never sent.
    MissingMessage {
        /// The receiving rank.
        receiver: usize,
        /// The rank it expected a message from.
        sender: usize,
    },
    /// An event references a rank outside the trace set.
    BadRank(usize),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingMessage { receiver, sender } => {
                write!(f, "rank {receiver} waits forever for a message from {sender}")
            }
            ReplayError::BadRank(r) => write!(f, "event references unknown rank {r}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays per-rank traces against the machine signature.
///
/// Semantics: `Compute` advances the rank's clock by the memory model's
/// prediction. `Send` advances the sender by its send overhead and
/// enqueues the message with arrival time `send_start + one_way(size)`.
/// `Recv` blocks until the matching message (FIFO per sender→receiver
/// channel) has arrived, then advances by the receive overhead.
///
/// Ranks execute round-robin; a blocked receive suspends the rank until
/// the sender has progressed, so ordinary (deadlock-free) traces always
/// complete. A receive whose message is never sent is reported.
pub fn replay(
    traces: &[Trace],
    network: &NetworkModel,
    memory: &MemoryModel,
) -> Result<ReplayResult, ReplayError> {
    let n = traces.len();
    let mut clock = vec![0.0f64; n];
    let mut wait = vec![0.0f64; n];
    let mut pc = vec![0usize; n];
    // channels[sender][receiver]: FIFO of arrival times
    let mut channels: Vec<Vec<VecDeque<f64>>> = vec![vec![VecDeque::new(); n]; n];

    // validate ranks up front
    for t in traces {
        for e in t {
            let peer = match e {
                Event::Send { peer, .. } | Event::Recv { peer } => *peer,
                _ => continue,
            };
            if peer >= n {
                return Err(ReplayError::BadRank(peer));
            }
        }
    }

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for rank in 0..n {
            let trace = &traces[rank];
            if pc[rank] >= trace.len() {
                continue;
            }
            all_done = false;
            match trace[pc[rank]] {
                Event::Compute { bytes, working_set } => {
                    clock[rank] += memory.predict_us(bytes, working_set);
                    pc[rank] += 1;
                    progressed = true;
                }
                Event::Send { peer, size } => {
                    let seg = network.segment_for(size);
                    let overhead = seg.send_overhead.0 + seg.send_overhead.1 * size as f64;
                    let arrival = clock[rank] + network.predict_one_way(size);
                    channels[rank][peer].push_back(arrival);
                    clock[rank] += overhead;
                    pc[rank] += 1;
                    progressed = true;
                }
                Event::Recv { peer } => {
                    if let Some(&arrival) = channels[peer][rank].front() {
                        channels[peer][rank].pop_front();
                        let blocked = (arrival - clock[rank]).max(0.0);
                        wait[rank] += blocked;
                        let size_seg = network.segments.first().expect("model has segments");
                        let overhead = size_seg.recv_overhead.0;
                        clock[rank] = clock[rank].max(arrival) + overhead;
                        pc[rank] += 1;
                        progressed = true;
                    }
                    // else: sender hasn't issued the send yet; retry next
                    // round (or fail below if nothing else can progress)
                }
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            // find the blocked pair for the error message
            for rank in 0..n {
                if pc[rank] < traces[rank].len() {
                    if let Event::Recv { peer } = traces[rank][pc[rank]] {
                        return Err(ReplayError::MissingMessage { receiver: rank, sender: peer });
                    }
                }
            }
            unreachable!("no progress but no blocked receive");
        }
    }
    Ok(ReplayResult { rank_finish_us: clock, rank_wait_us: wait })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::memory::Plateau;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::NetworkTarget;
    use charm_simnet::noise::NoiseModel;
    use charm_simnet::presets;

    fn network() -> NetworkModel {
        let sizes: Vec<i64> = vec![64, 1024, 8192, 40_000, 90_000, 400_000, 900_000];
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
            .factor(Factor::new("size", sizes))
            .replicates(3)
            .build()
            .unwrap();
        plan.shuffle(1);
        let mut sim = presets::taurus_openmpi_tcp(1);
        sim.set_noise(NoiseModel::silent(0));
        let mut target = NetworkTarget::new("t", sim);
        let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(1).run().unwrap().data;
        NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel {
            plateaus: vec![Plateau { capacity_bytes: 1 << 20, bandwidth_mbps: 10_000.0 }],
            dram_bandwidth_mbps: 1_000.0,
        }
    }

    #[test]
    fn compute_only_trace() {
        let traces = vec![vec![Event::Compute { bytes: 1e6, working_set: 1024 }]];
        let r = replay(&traces, &network(), &memory()).unwrap();
        assert!((r.rank_finish_us[0] - 100.0).abs() < 1e-9); // 1e6 B / 10 GB/s
        assert_eq!(r.rank_wait_us[0], 0.0);
    }

    #[test]
    fn pingpong_roundtrip_matches_model_shape() {
        let size = 8192u64;
        let traces = vec![
            vec![Event::Send { peer: 1, size }, Event::Recv { peer: 1 }],
            vec![Event::Recv { peer: 0 }, Event::Send { peer: 0, size }],
        ];
        let net = network();
        let r = replay(&traces, &net, &memory()).unwrap();
        // makespan ≈ 2 one-way times (plus overheads): within 2x of the
        // model's RTT prediction
        let rtt = net.predict(charm_simnet::NetOp::PingPong, size);
        let makespan = r.makespan_us();
        assert!(makespan > rtt * 0.5 && makespan < rtt * 2.0, "{makespan} vs rtt {rtt}");
    }

    #[test]
    fn receiver_waits_for_slow_sender() {
        // rank 0 computes for a long time before sending; rank 1 waits
        let traces = vec![
            vec![
                Event::Compute { bytes: 1e7, working_set: 8 << 20 }, // 10 ms at 1 GB/s
                Event::Send { peer: 1, size: 1024 },
            ],
            vec![Event::Recv { peer: 0 }],
        ];
        let r = replay(&traces, &network(), &memory()).unwrap();
        assert!(r.rank_wait_us[1] > 9_000.0, "receiver should block ~10 ms: {:?}", r);
        // convolution-style summation would predict rank 1 finishing
        // almost instantly — replay captures the dependency
        assert!(r.rank_finish_us[1] > 9_000.0);
    }

    #[test]
    fn fifo_ordering_per_channel() {
        let traces = vec![
            vec![
                Event::Send { peer: 1, size: 64 },
                Event::Compute { bytes: 1e6, working_set: 1024 },
                Event::Send { peer: 1, size: 64 },
            ],
            vec![Event::Recv { peer: 0 }, Event::Recv { peer: 0 }],
        ];
        let r = replay(&traces, &network(), &memory()).unwrap();
        // second receive completes after the sender's compute block
        assert!(r.rank_finish_us[1] >= 100.0);
    }

    #[test]
    fn missing_message_detected() {
        let traces = vec![vec![Event::Recv { peer: 1 }], vec![]];
        let err = replay(&traces, &network(), &memory()).unwrap_err();
        assert_eq!(err, ReplayError::MissingMessage { receiver: 0, sender: 1 });
    }

    #[test]
    fn bad_rank_detected() {
        let traces = vec![vec![Event::Send { peer: 7, size: 1 }]];
        assert_eq!(replay(&traces, &network(), &memory()).unwrap_err(), ReplayError::BadRank(7));
    }

    #[test]
    fn deadlock_free_cross_exchange() {
        // both send first, then receive: eager semantics let it complete
        let traces = vec![
            vec![Event::Send { peer: 1, size: 512 }, Event::Recv { peer: 1 }],
            vec![Event::Send { peer: 0, size: 512 }, Event::Recv { peer: 0 }],
        ];
        let r = replay(&traces, &network(), &memory()).unwrap();
        assert!(r.makespan_us() > 0.0);
        assert_eq!(r.rank_finish_us.len(), 2);
    }

    #[test]
    fn makespan_is_max_rank_time() {
        let traces = vec![
            vec![Event::Compute { bytes: 1e6, working_set: 1024 }],
            vec![Event::Compute { bytes: 5e6, working_set: 1024 }],
        ];
        let r = replay(&traces, &network(), &memory()).unwrap();
        assert_eq!(r.makespan_us(), r.rank_finish_us[1]);
    }
}
