//! The reliable sender at its own level: a `Fabric`, a `Reactor`, a seeded
//! `FaultPlan`, an owner task that only admits sends and logs outcomes,
//! and scripted receiver tasks — no deployment, no codec, no relay tree.
//!
//! The contract `FlowSender` gives both of its owners (the producer's
//! delivery task, a relay's re-serve role):
//!
//! * every admitted send yields **exactly one** terminal outcome, so
//!   `admitted == complete + need_full + exhausted + gone + superseded`
//!   once drained;
//! * a lane never has two flows in flight;
//! * a blind resend covers every chunk, a NACKed round exactly the missing
//!   ones, and each round is announced by its `Round` frame first;
//! * feedback from the wrong peer or a stale generation is counted and
//!   never acted on;
//! * the same seed yields the same outcome sequence at the same instants.
//!
//! Everything after the one `Start` job runs on the reactor thread, so a
//! run is a pure function of its scenario.

use proptest::prelude::*;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use viper_hw::{MachineProfile, SimClock, SimInstant};
use viper_net::{
    chunk_body_crc, ChunkHeader, ChunkedSend, Control, Endpoint, Fabric, FaultPlan, FlowAssembler,
    FlowSender, FlowStatus, LinkKind, MessageKind, Outbound, Outcome, OutcomeKind, Payload,
    Reactor, ReactorTask, RetryPolicy, SenderCounters, TaskCtx,
};
use viper_telemetry::Telemetry;

const CHUNK: u64 = 512;
const LINK: LinkKind = LinkKind::GpuDirect;
/// Added to a send's token when the owner answers its `NeedFull` with a
/// retry; receivers never reject a retry.
const RETRY: u64 = 1_000_000;

/// Seeds for the fault sweep (`VIPER_FAULT_SEEDS` in CI's fault matrix).
fn fault_seeds() -> Vec<u64> {
    std::env::var("VIPER_FAULT_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 42])
}

fn retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        ack_timeout: Duration::from_millis(1),
        ..RetryPolicy::default()
    }
}

// ---------------------------------------------------------------------------
// Scripted receiver
// ---------------------------------------------------------------------------

/// How a receiver answers a flow. Sends whose token is `3 (mod 4)` are
/// answered `NeedFull` by every behaviour that answers at all.
#[derive(Debug, Clone, PartialEq)]
enum Behaviour {
    /// ACK complete flows, NACK corrupt chunks.
    Honest,
    /// Never answer.
    Silent,
    /// Discard a flow's chunks until its first `Round` frame, then `Honest`.
    DeafUntilRound,
    /// Pretend these chunk indices of the first round were lost and NACK
    /// them; `Honest` from the first `Round` frame on.
    LoseOnce(Vec<u32>),
    /// Like `LoseOnce(lost)`, but the NACK names `report` instead: indices
    /// repeated, or ones the flow does not have.
    Misreport { lost: Vec<u32>, report: Vec<u32> },
    /// `Honest`, but NACK every damaged chunk *arrival* — a receiver without
    /// the assembler's once-per-reap corrupt flag, which names a chunk the
    /// link corrupted and then duplicated twice.
    Echo,
    /// ACK complete flows from a *different* node.
    Impostor,
    /// ACK complete flows stamped with a generation the sender never used.
    WrongGeneration,
    /// Like `LoseOnce(lost)`, but every feedback frame goes out twice: the
    /// NACK's copy lands after the round it asked for began (a superseded
    /// generation), the ACK's copy after the flow resolved.
    Replay(Vec<u32>),
}

/// One frame a receiver drained, in queue order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    token: u64,
    flow_id: u64,
    /// `None` for a `Round` frame.
    chunk: Option<u32>,
}

struct Receiver {
    endpoint: Endpoint,
    behaviour: Behaviour,
    /// Sends the `Impostor`'s ACKs.
    stranger: Option<Endpoint>,
    asm: FlowAssembler,
    generations: HashMap<u64, u64>,
    seen: Arc<Mutex<Vec<Seen>>>,
    /// The `missing` list of every NACK sent, in send order.
    nacked: Arc<Mutex<Vec<Vec<u32>>>>,
}

fn token_of(tag: &str) -> u64 {
    tag.rsplit(':').next().unwrap().parse().unwrap()
}

impl Receiver {
    fn generation(&self, flow_id: u64) -> u64 {
        self.generations.get(&flow_id).copied().unwrap_or(0)
    }

    /// How many times each feedback frame is sent.
    fn copies(&self) -> usize {
        if matches!(self.behaviour, Behaviour::Replay(_)) {
            2
        } else {
            1
        }
    }
}

impl ReactorTask for Receiver {
    fn on_mail(&mut self, _ctx: &mut TaskCtx<'_>) {
        // Per damaged flow: (sender, tag, chunk indices, latest arrival).
        let mut nacks: BTreeMap<u64, (String, String, Vec<u32>, SimInstant)> = BTreeMap::new();
        while let Some(msg) = self.endpoint.try_recv() {
            let token = token_of(&msg.tag);
            if msg.kind == MessageKind::Control {
                let frame = Control::decode(msg.payload.as_contiguous().unwrap_or(&[]));
                if let Some(Control::Round {
                    flow_id,
                    generation,
                }) = frame
                {
                    self.generations.insert(flow_id, generation);
                    self.seen.lock().unwrap().push(Seen {
                        token,
                        flow_id,
                        chunk: None,
                    });
                }
                continue;
            }
            let Some((header, _)) = ChunkHeader::decode_buf(&msg.payload) else {
                continue;
            };
            let flow_id = header.flow_id;
            self.seen.lock().unwrap().push(Seen {
                token,
                flow_id,
                chunk: Some(header.chunk_index),
            });
            let first_round = !self.generations.contains_key(&flow_id);
            let mut complain = |index: u32| {
                let entry = nacks.entry(flow_id).or_insert_with(|| {
                    (
                        msg.from.clone(),
                        msg.tag.clone(),
                        Vec::new(),
                        msg.arrived_at,
                    )
                });
                entry.2.push(index);
                entry.3 = entry.3.max(msg.arrived_at);
            };
            match &self.behaviour {
                Behaviour::Silent => continue,
                Behaviour::DeafUntilRound if first_round => continue,
                Behaviour::LoseOnce(lost) | Behaviour::Replay(lost)
                    if first_round && lost.contains(&header.chunk_index) =>
                {
                    complain(header.chunk_index);
                    continue;
                }
                Behaviour::Misreport { lost, report }
                    if first_round && lost.contains(&header.chunk_index) =>
                {
                    for &index in report {
                        complain(index);
                    }
                    continue;
                }
                _ => {}
            }
            if self.behaviour == Behaviour::Echo && chunk_body_crc(&msg) != Some(header.crc32) {
                complain(header.chunk_index);
                continue;
            }
            match self.asm.accept(msg.clone()) {
                FlowStatus::Corrupt { chunk_index, .. } => complain(chunk_index),
                FlowStatus::Complete(flow) => {
                    let generation = self.generation(flow_id);
                    let reply = if token % 4 == 3 && token < RETRY {
                        Control::NeedFull {
                            flow_id,
                            generation,
                        }
                    } else {
                        Control::Ack {
                            flow_id,
                            generation,
                        }
                    };
                    let (from, at) = (&flow.from, flow.completed_at);
                    match &self.behaviour {
                        Behaviour::Impostor => {
                            let stranger = self.stranger.as_ref().unwrap();
                            let _ = stranger.send_control_at(from, &flow.tag, &reply, LINK, at);
                        }
                        Behaviour::WrongGeneration => {
                            let bogus = Control::Ack {
                                flow_id,
                                generation: generation + 7,
                            };
                            let _ = self
                                .endpoint
                                .send_control_at(from, &flow.tag, &bogus, LINK, at);
                        }
                        _ => {
                            for _ in 0..self.copies() {
                                let _ = self
                                    .endpoint
                                    .send_control_at(from, &flow.tag, &reply, LINK, at);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (flow_id, (from, tag, missing, at)) in nacks {
            self.nacked.lock().unwrap().push(missing.clone());
            let nack = Control::Nack {
                flow_id,
                generation: self.generation(flow_id),
                missing,
            };
            for _ in 0..self.copies() {
                let _ = self.endpoint.send_control_at(&from, &tag, &nack, LINK, at);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _deadline: SimInstant, _ctx: &mut TaskCtx<'_>) {}
}

// ---------------------------------------------------------------------------
// Owner: admits the scripted sends, logs the outcomes
// ---------------------------------------------------------------------------

/// One scripted send: which peer (lane) and how many chunks.
#[derive(Debug, Clone)]
struct Admit {
    peer: usize,
    chunks: usize,
}

#[derive(Default)]
struct Log {
    admitted: Vec<(u64, String)>,
    outcomes: Vec<Outcome>,
    launched: u64,
}

struct Start;

struct Owner {
    endpoint: Arc<Endpoint>,
    sender: FlowSender<String>,
    peers: Vec<String>,
    /// Wave 0 is admitted at `Start`; each later wave when the next
    /// outcome arrives, ready at that outcome's instant. A wave's index
    /// (plus one) is its sends' queue version, so two sends of one wave on
    /// one lane collide.
    waves: VecDeque<Vec<Admit>>,
    wave: u64,
    next_token: u64,
    /// Peer endpoints the owner itself holds and drops when the first ack
    /// timer fires: the peer vanishes between a send and its repair.
    victims: Vec<Endpoint>,
    log: Arc<Mutex<Log>>,
    done: Sender<()>,
}

impl Owner {
    fn outbound(&self, token: u64, to: &str, chunks: usize, at: SimInstant) -> Outbound {
        let bytes: Vec<u8> = (0..chunks * CHUNK as usize - 7)
            .map(|i| (i as u64 * 31 + token) as u8)
            .collect();
        Outbound {
            token,
            to: to.to_string(),
            tag: format!("t:{token}"),
            link: LINK,
            payload: Payload::from(bytes),
            opts: ChunkedSend::new(CHUNK),
            ready_at: at,
            track: "owner".into(),
        }
    }

    fn admit_wave(&mut self, ctx: &mut TaskCtx<'_>, at: SimInstant) {
        let Some(wave) = self.waves.pop_front() else {
            return;
        };
        self.wave += 1;
        for admit in wave {
            let token = self.next_token;
            self.next_token += 1;
            let to = self.peers[admit.peer].clone();
            let send = self.outbound(token, &to, admit.chunks, at);
            self.log.lock().unwrap().admitted.push((token, to.clone()));
            self.sender.admit(ctx, to, self.wave, send);
        }
    }

    fn drain(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(outcome) = self.sender.next_outcome(ctx) {
            let at = outcome.at;
            if outcome.kind == OutcomeKind::NeedFull && outcome.token < RETRY {
                // The owner's policy here: answer on the held lane, once.
                let token = outcome.token + RETRY;
                let send = self.outbound(token, &outcome.to, 2, at);
                self.log
                    .lock()
                    .unwrap()
                    .admitted
                    .push((token, outcome.to.clone()));
                self.sender.relaunch(ctx, outcome.to.clone(), send);
            }
            self.log.lock().unwrap().outcomes.push(outcome);
            self.admit_wave(ctx, at);
        }
        let mut log = self.log.lock().unwrap();
        log.launched = self.sender.launched();
        if self.waves.is_empty() && log.outcomes.len() == log.admitted.len() {
            assert_eq!(self.sender.backlog(), 0, "drained with sends still queued");
            let _ = self.done.send(());
        }
    }
}

impl ReactorTask for Owner {
    fn on_mail(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(msg) = self.endpoint.try_recv() {
            let frame = Control::decode(msg.payload.as_contiguous().unwrap_or(&[]));
            if let Some(control) = frame {
                self.sender
                    .on_feedback(ctx, &msg.from, control, msg.arrived_at);
                self.drain(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, deadline: SimInstant, ctx: &mut TaskCtx<'_>) {
        self.victims.clear();
        assert!(
            self.sender.on_timer(ctx, token, deadline),
            "every timer of this task is a live flow's: terminal flows cancel theirs"
        );
        self.drain(ctx);
    }

    fn on_job(&mut self, job: Box<dyn Any + Send>, ctx: &mut TaskCtx<'_>) {
        job.downcast::<Start>().expect("the only job is Start");
        self.admit_wave(ctx, SimInstant::ZERO);
        self.drain(ctx);
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Scenario {
    /// Registered peers and how each answers. Index `peers.len()` names a
    /// node that never registered.
    peers: Vec<Behaviour>,
    /// Peers held by the owner itself (appended after `peers`), dropped at
    /// the first ack timer.
    victims: usize,
    waves: Vec<Vec<Admit>>,
    retry: RetryPolicy,
    plan: Option<FaultPlan>,
}

impl Scenario {
    fn new(peers: Vec<Behaviour>, waves: Vec<Vec<Admit>>, max_retries: u32) -> Self {
        Scenario {
            peers,
            victims: 0,
            waves,
            retry: retry(max_retries),
            plan: None,
        }
    }
}

struct Run {
    admitted: Vec<(u64, String)>,
    outcomes: Vec<Outcome>,
    /// Frames each registered peer drained, in queue order.
    seen: Vec<Vec<Seen>>,
    launched: u64,
    retransmits: u64,
    stale_feedback: u64,
    timers_fired: u64,
    /// Every NACK's `missing` list, over all peers.
    nacked: Vec<Vec<u32>>,
    /// Chunks the fabric carried in retransmission rounds.
    chunks_retransmitted: u64,
}

impl Run {
    fn kinds(&self) -> Vec<(u64, OutcomeKind)> {
        self.outcomes.iter().map(|o| (o.token, o.kind)).collect()
    }
}

fn run(scenario: &Scenario) -> Run {
    let telemetry = Telemetry::disabled();
    let fabric = Fabric::new(MachineProfile::polaris(), SimClock::new());
    fabric.set_telemetry(telemetry.clone());
    fabric.set_fault_plan(scenario.plan.clone());
    let reactor = Reactor::new(1, telemetry.clone());
    fabric.set_waker(Some(reactor.waker()));

    let mut names: Vec<String> = Vec::new();
    let mut seen = Vec::new();
    let nacked = Arc::new(Mutex::new(Vec::new()));
    for (i, behaviour) in scenario.peers.iter().enumerate() {
        let name = format!("rx{i}");
        let log = Arc::new(Mutex::new(Vec::new()));
        reactor.register(
            &name,
            Box::new(Receiver {
                endpoint: fabric.register(&name),
                behaviour: behaviour.clone(),
                stranger: (*behaviour == Behaviour::Impostor)
                    .then(|| fabric.register(&format!("stranger{i}"))),
                asm: FlowAssembler::new(),
                generations: HashMap::new(),
                seen: Arc::clone(&log),
                nacked: Arc::clone(&nacked),
            }),
        );
        names.push(name);
        seen.push(log);
    }
    let victims: Vec<Endpoint> = (0..scenario.victims)
        .map(|i| {
            let name = format!("victim{i}");
            names.push(name.clone());
            fabric.register(&name)
        })
        .collect();
    names.push("ghost".into());

    let endpoint = Arc::new(fabric.register("tx"));
    let counters = SenderCounters {
        retransmits: telemetry.counter("tx.retransmits"),
        stale_feedback: telemetry.counter("tx.stale_feedback"),
    };
    let log = Arc::new(Mutex::new(Log::default()));
    let (done, finished) = channel();
    reactor.register(
        "tx",
        Box::new(Owner {
            sender: FlowSender::new(
                Arc::clone(&endpoint),
                scenario.retry,
                telemetry.clone(),
                "test",
                counters.clone(),
            ),
            endpoint,
            peers: names,
            waves: scenario.waves.iter().cloned().collect(),
            wave: 0,
            next_token: 0,
            victims,
            log: Arc::clone(&log),
            done,
        }),
    );
    reactor.submit("tx", Box::new(Start));
    finished
        .recv_timeout(Duration::from_secs(20))
        .expect("the scenario drains");
    // Deregistering is synchronous: afterwards no task runs any more.
    reactor.deregister("tx");
    drop(reactor);
    let log = std::mem::take(&mut *log.lock().unwrap());
    let nacked = std::mem::take(&mut *nacked.lock().unwrap());
    Run {
        admitted: log.admitted,
        outcomes: log.outcomes,
        seen: seen.iter().map(|s| s.lock().unwrap().clone()).collect(),
        launched: log.launched,
        retransmits: counters.retransmits.get(),
        stale_feedback: counters.stale_feedback.get(),
        timers_fired: telemetry.counter("reactor.timers_fired").get(),
        nacked,
        chunks_retransmitted: telemetry.counter("fabric.chunks_retransmitted").get(),
    }
}

fn one(peer: usize, chunks: usize) -> Vec<Admit> {
    vec![Admit { peer, chunks }]
}

/// Chunk indices a peer drained after the `Round` frame of `flow_id`.
fn after_round(seen: &[Seen], flow_id: u64) -> Vec<u32> {
    seen.iter()
        .skip_while(|s| !(s.flow_id == flow_id && s.chunk.is_none()))
        .filter(|s| s.flow_id == flow_id)
        .filter_map(|s| s.chunk)
        .collect()
}

// ---------------------------------------------------------------------------
// The owner contract, case by case
// ---------------------------------------------------------------------------

#[test]
fn a_clean_send_completes_once_and_leaves_no_timer_armed() {
    let run = run(&Scenario::new(vec![Behaviour::Honest], vec![one(0, 4)], 3));
    assert_eq!(run.kinds(), vec![(0, OutcomeKind::Complete)]);
    assert_eq!(run.outcomes[0].to, "rx0");
    assert!(
        run.outcomes[0].at > SimInstant::ZERO,
        "completes at the ACK"
    );
    assert_eq!(
        (run.launched, run.retransmits, run.stale_feedback),
        (1, 0, 0)
    );
    // The flow's ack timer was cancelled with the flow: the reactor went
    // quiescent without firing anything.
    assert_eq!(run.timers_fired, 0);
}

#[test]
fn a_blind_resend_is_announced_first_and_covers_every_chunk() {
    let run = run(&Scenario::new(
        vec![Behaviour::DeafUntilRound],
        vec![one(0, 5)],
        3,
    ));
    assert_eq!(run.kinds(), vec![(0, OutcomeKind::Complete)]);
    assert_eq!(run.retransmits, 1, "one ack timeout, one round");
    let seen = &run.seen[0];
    let flow_id = seen[0].flow_id;
    assert_eq!(
        seen.iter()
            .filter_map(|s| s.chunk)
            .take(5)
            .collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "the first send"
    );
    assert_eq!(seen[5].chunk, None, "the Round frame precedes its chunks");
    assert_eq!(after_round(seen, flow_id), vec![0, 1, 2, 3, 4]);
    // Silence costs the ack timeout before anything is resent.
    assert!(run.outcomes[0].at.as_nanos() > 1_000_000);
}

#[test]
fn a_nacked_round_resends_exactly_the_missing_chunks() {
    let run = run(&Scenario::new(
        vec![Behaviour::LoseOnce(vec![1, 3])],
        vec![one(0, 5)],
        3,
    ));
    assert_eq!(run.kinds(), vec![(0, OutcomeKind::Complete)]);
    assert_eq!(run.retransmits, 1);
    assert_eq!(run.timers_fired, 0, "the NACK beat the ack timer");
    let flow_id = run.seen[0][0].flow_id;
    assert_eq!(after_round(&run.seen[0], flow_id), vec![1, 3]);
}

#[test]
fn a_chunk_named_thrice_is_resent_once() {
    let run = run(&Scenario::new(
        vec![Behaviour::Misreport {
            lost: vec![2],
            report: vec![2, 2, 2],
        }],
        vec![one(0, 5)],
        3,
    ));
    assert_eq!(run.nacked, vec![vec![2, 2, 2]]);
    assert_eq!(run.kinds(), vec![(0, OutcomeKind::Complete)]);
    assert_eq!(run.retransmits, 1);
    let flow_id = run.seen[0][0].flow_id;
    assert_eq!(after_round(&run.seen[0], flow_id), vec![2]);
    assert_eq!(run.chunks_retransmitted, 1);
}

#[test]
fn a_nack_naming_no_chunk_of_the_flow_is_stale_and_spends_no_round() {
    // One retry in the budget: were the NACK to burn it on a round that
    // resends nothing, the ack timeout's blind resend could not follow.
    let run = run(&Scenario::new(
        vec![Behaviour::Misreport {
            lost: vec![1],
            report: vec![u32::MAX],
        }],
        vec![one(0, 5)],
        1,
    ));
    assert_eq!(run.kinds(), vec![(0, OutcomeKind::Complete)]);
    assert_eq!(run.stale_feedback, 1);
    assert_eq!(run.retransmits, 1, "the blind round, and only it");
    assert_eq!(run.timers_fired, 1);
    let flow_id = run.seen[0][0].flow_id;
    assert_eq!(after_round(&run.seen[0], flow_id), vec![0, 1, 2, 3, 4]);
}

/// The link corrupts a message before it duplicates it, so a damaged chunk
/// can land twice in one drain; a receiver that NACKs every damaged arrival
/// names it twice, and the round still resends it once.
#[test]
fn duplicated_corruption_is_resent_once_per_round() {
    for seed in fault_seeds() {
        let wave = || (0..3).map(|peer| Admit { peer, chunks: 5 }).collect();
        let mut scenario = Scenario::new(vec![Behaviour::Echo; 3], vec![wave(), wave()], 16);
        scenario.plan = Some(
            FaultPlan::seeded(seed)
                .with_duplicate(0.5)
                .with_corrupt(0.5),
        );
        let run = run(&scenario);
        assert_contract(&run);
        let distinct = |missing: &Vec<u32>| missing.iter().collect::<BTreeSet<_>>().len();
        assert!(
            run.nacked.iter().any(|m| distinct(m) < m.len()),
            "seed {seed}: no chunk was both corrupted and duplicated"
        );
        // Nothing is dropped and every damaged arrival is NACKed, so every
        // round answers exactly one NACK.
        assert_eq!(run.timers_fired, 0, "seed {seed}");
        assert_eq!(run.retransmits, run.nacked.len() as u64, "seed {seed}");
        let named: usize = run.nacked.iter().map(distinct).sum();
        assert_eq!(run.chunks_retransmitted, named as u64, "seed {seed}");
    }
}

#[test]
fn exhaustion_spends_the_whole_budget_and_reports_the_backlog() {
    // Three versions for one silent peer: the first takes the lane, the
    // third collapses the second out of the lane's one pending slot.
    let waves = vec![
        vec![Admit { peer: 0, chunks: 2 }, Admit { peer: 0, chunks: 2 }],
        one(0, 2),
    ];
    let run = run(&Scenario::new(vec![Behaviour::Silent], waves, 2));
    // Wave 0: token 0 launches, token 1 (same version) queues behind it.
    // Token 0 gives up with token 1 queued; wave 1's token 2 arrives at
    // that instant, finds the lane still held, and collapses token 1.
    assert_eq!(
        run.kinds(),
        vec![
            (0, OutcomeKind::Exhausted { backlog: 1 }),
            (1, OutcomeKind::Superseded),
            (2, OutcomeKind::Exhausted { backlog: 0 }),
        ]
    );
    assert_eq!(run.launched, 2, "a superseded send never touches the wire");
    assert_eq!(run.retransmits, 4, "two rounds per exhausted flow");
    // One flow at a time on the lane: the survivor starts after the first
    // gave up.
    let flows: Vec<u64> = run.seen[0].iter().map(|s| s.token).collect();
    let first_of_2 = flows.iter().position(|&t| t == 2).unwrap();
    assert!(flows[first_of_2..].iter().all(|&t| t == 2));
    assert_eq!(run.outcomes[1].at, run.outcomes[0].at);
    assert!(run.outcomes[2].at > run.outcomes[0].at);
}

#[test]
fn feedback_from_the_wrong_peer_or_generation_is_counted_never_acted_on() {
    for behaviour in [Behaviour::Impostor, Behaviour::WrongGeneration] {
        let run = run(&Scenario::new(vec![behaviour.clone()], vec![one(0, 3)], 2));
        // The flow reassembled and "was ACKed" — by a stranger, or for a
        // round that never existed. Acting on either would complete it.
        assert_eq!(
            run.kinds(),
            vec![(0, OutcomeKind::Exhausted { backlog: 0 })],
            "{behaviour:?}"
        );
        assert_eq!(run.stale_feedback, 1, "{behaviour:?}");
        assert_eq!(run.retransmits, 2, "{behaviour:?}");
    }
}

#[test]
fn replayed_feedback_is_counted_stale_and_never_acted_on() {
    // Two versions on one lane; each loses chunks 1 and 3 once. The replay
    // receiver repeats its NACK (by then from a superseded generation) and
    // its ACK (by then for a resolved flow — the second ACK lands while
    // the next version holds the lane).
    let waves = vec![one(0, 5), one(0, 5)];
    let honest = run(&Scenario::new(
        vec![Behaviour::LoseOnce(vec![1, 3])],
        waves.clone(),
        3,
    ));
    let replay = run(&Scenario::new(
        vec![Behaviour::Replay(vec![1, 3])],
        waves,
        3,
    ));
    let complete = vec![(0, OutcomeKind::Complete), (1, OutcomeKind::Complete)];
    assert_eq!(honest.kinds(), complete);
    assert_eq!(replay.kinds(), complete, "one outcome per send");
    assert_eq!(honest.retransmits, 2, "one NACKed round per send");
    assert_eq!(replay.retransmits, honest.retransmits, "no extra round");
    assert_eq!(replay.seen, honest.seen, "the same frames on the wire");
    assert_eq!(honest.stale_feedback, 0);
    assert_eq!(
        replay.stale_feedback, 4,
        "each send's replayed NACK and replayed ACK"
    );
    assert_eq!(replay.timers_fired, 0);
}

#[test]
fn a_peer_that_vanishes_mid_flow_is_gone_not_exhausted() {
    let mut scenario = Scenario::new(vec![], vec![one(0, 3), one(1, 3)], 5);
    scenario.victims = 1;
    let run = run(&scenario);
    // victim0 took the first send and deregistered before the repair
    // round; "ghost" never existed.
    assert_eq!(
        run.kinds(),
        vec![(0, OutcomeKind::Gone), (1, OutcomeKind::Gone)]
    );
    assert_eq!(run.launched, 1);
    assert_eq!(
        run.retransmits, 1,
        "the round was counted, then found no peer"
    );
    assert_eq!(
        run.outcomes[1].at, run.outcomes[0].at,
        "gone at its ready instant"
    );
}

#[test]
fn a_need_full_retry_keeps_the_lane_ahead_of_the_queue() {
    // Token 3 is answered NeedFull. Wave 0 is tokens 0..=3 on two peers so
    // that token 3 leads rx1's lane; wave 1 (token 4) queues behind it.
    let waves = vec![
        vec![
            Admit { peer: 0, chunks: 1 },
            Admit { peer: 2, chunks: 1 },
            Admit { peer: 2, chunks: 1 },
            Admit { peer: 1, chunks: 3 },
        ],
        one(1, 2),
    ];
    let run = run(&Scenario::new(
        vec![Behaviour::Honest, Behaviour::Honest],
        waves,
        3,
    ));
    assert_eq!(
        run.kinds(),
        vec![
            (1, OutcomeKind::Gone),
            (2, OutcomeKind::Gone),
            (0, OutcomeKind::Complete),
            (3, OutcomeKind::NeedFull),
            (3 + RETRY, OutcomeKind::Complete),
            (4, OutcomeKind::Complete),
        ]
    );
    // rx1 saw the rejected flow, then its retry, then the queued send.
    let mut order: Vec<u64> = run.seen[1].iter().map(|s| s.token).collect();
    order.dedup();
    assert_eq!(order, vec![3, 3 + RETRY, 4]);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn admit_strategy() -> impl Strategy<Value = Admit> {
    (0usize..4, 1usize..6).prop_map(|(peer, chunks)| Admit { peer, chunks })
}

fn probability() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.0), Just(0.1), Just(0.3)]
}

/// The invariants every drained run satisfies.
fn assert_contract(run: &Run) {
    // Exactly one outcome per admitted send.
    let admitted: BTreeSet<&(u64, String)> = run.admitted.iter().collect();
    assert_eq!(admitted.len(), run.admitted.len(), "tokens are unique");
    let mut resolved = HashSet::new();
    for outcome in &run.outcomes {
        let key = (outcome.token, outcome.to.clone());
        assert!(admitted.contains(&key), "outcome for a send never admitted");
        assert!(resolved.insert(key), "two outcomes for {outcome:?}");
    }
    assert_eq!(resolved.len(), run.admitted.len(), "a send never ended");
    let count =
        |want: fn(&OutcomeKind) -> bool| run.outcomes.iter().filter(|o| want(&o.kind)).count();
    let on_wire = count(|k| matches!(k, OutcomeKind::Complete))
        + count(|k| matches!(k, OutcomeKind::NeedFull))
        + count(|k| matches!(k, OutcomeKind::Exhausted { .. }));
    let gone = count(|k| matches!(k, OutcomeKind::Gone));
    let superseded = count(|k| matches!(k, OutcomeKind::Superseded));
    assert_eq!(run.admitted.len(), on_wire + gone + superseded);
    // No peer vanishes in these runs, so every flow put on the wire ends
    // one of the three on-wire ways and `Gone` means "never launched".
    assert_eq!(run.launched as usize, on_wire);
    // One flow in flight per lane: a peer is one lane, the fabric keeps a
    // sender's frames in order, and faults only shuffle within one send —
    // so once a lane moves on to a new flow, the old one is never heard
    // from again.
    for seen in &run.seen {
        let mut flows: Vec<u64> = seen.iter().map(|s| s.flow_id).collect();
        flows.dedup();
        let distinct: BTreeSet<u64> = flows.iter().copied().collect();
        assert_eq!(
            flows.len(),
            distinct.len(),
            "two flows interleaved on a lane: {flows:?}"
        );
    }
}

proptest! {
    #[test]
    fn every_admitted_send_ends_exactly_once_and_reproducibly(
        waves in prop::collection::vec(prop::collection::vec(admit_strategy(), 1..5), 1..6),
        max_retries in 0u32..4,
        drop in probability(),
        duplicate in probability(),
        reorder in probability(),
        corrupt in probability(),
        salt in 0u64..1_000,
    ) {
        for seed in fault_seeds() {
            let scenario = Scenario {
                // Peer 3 is the node that never registered.
                peers: vec![Behaviour::Honest; 3],
                victims: 0,
                waves: waves.clone(),
                retry: retry(max_retries),
                plan: Some(
                    FaultPlan::seeded(seed.wrapping_add(salt))
                        .with_drop(drop)
                        .with_duplicate(duplicate)
                        .with_reorder(reorder)
                        .with_corrupt(corrupt),
                ),
            };
            let first = run(&scenario);
            assert_contract(&first);
            // Same seed: the same outcomes, in the same order, at the same
            // virtual instants, after the same number of rounds.
            let again = run(&scenario);
            prop_assert_eq!(&first.outcomes, &again.outcomes);
            prop_assert_eq!(first.retransmits, again.retransmits);
            prop_assert_eq!(first.stale_feedback, again.stale_feedback);
            prop_assert_eq!(&first.seen, &again.seen);
        }
    }
}
