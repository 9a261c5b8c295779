//! The paper's Figure 1, followed on a committed spec.
//!
//! A run of any spec can carry a [`FlowTrace`] through the engine's observer
//! seam.  This test runs `examples/specs/poisson_rho089.json`, scaled down,
//! picks the first request whose first candidate refused the connection,
//! prints its packet walk — client → load balancer → candidate 1 →
//! candidate 2 → the SYN-ACK through the load balancer → client → the
//! request steered to the acceptor → the response — and checks the walk's
//! shape against the run's server and load-balancer counters, that
//! watching a run does not change it, and that every execution mode
//! records the same walk.
//!
//! `cargo test --test figure1_walk -- --nocapture` shows the walk.

use std::net::Ipv6Addr;

use srlb::core::client::{request_endpoint, request_id_of};
use srlb::core::spec::ExperimentSpec;
use srlb::core::{FlowTrace, Hop, NodeRole, RunOutcome, Runner};
use srlb::net::{AddressPlan, Packet, TcpFlags};
use srlb::sim::{EventKey, ExecMode, NodeId, Observer, PoolPolicy, Seen};

/// Notes the client endpoint of every SYN a refusing candidate passed on.
#[derive(Debug, Clone, Default)]
struct PassOns(Vec<(Ipv6Addr, u16)>);

impl Observer<Packet> for PassOns {
    fn observe(&mut self, _: EventKey, _: NodeId, seen: Seen<'_, Packet>) {
        if let Seen::Message(msg) = seen {
            let passed_on = msg
                .srh
                .as_ref()
                .is_some_and(|srh| usize::from(srh.segments_left()) + 1 < srh.num_segments());
            if msg.is_syn() && passed_on {
                self.0.push((msg.source(), msg.tcp.source_port));
            }
        }
    }
}

fn committed_spec(stem: &str, queries: usize) -> ExperimentSpec {
    let path = format!("{}/examples/specs/{stem}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed spec is readable");
    let spec: ExperimentSpec = serde_json::from_str(&text).expect("committed spec parses");
    spec.with_queries(queries)
}

/// The trace of `runner`'s request `id`, merged across shards, and the run.
fn walk(runner: &Runner, id: u64) -> (FlowTrace, RunOutcome) {
    let (client, port) = request_endpoint(&AddressPlan::default(), id);
    let (outcome, shards) = runner.run_observed(FlowTrace::new(client, port));
    (FlowTrace::new(client, port).merge(shards), outcome)
}

fn is_syn(hop: &Hop) -> bool {
    hop.flags.contains(TcpFlags::SYN) && !hop.flags.contains(TcpFlags::ACK)
}

/// Figure 1's shape, checked against the run's counters: the hunt walks
/// the SRH's candidates one segment at a time, each one that passed the SYN
/// on counted a pass-on, the last one accepted and answers through a load
/// balancer that learned the flow, and the request is steered to the
/// acceptor.
fn check_walk(runner: &Runner, hops: &[Hop], outcome: &RunOutcome) {
    let server_of = |node: NodeId| match runner.role_of(node) {
        NodeRole::Server(i) => i,
        role => panic!("{node:?} is {role:?}, not a server"),
    };
    let client = NodeId(0);
    assert_eq!(runner.role_of(client), NodeRole::Client);

    assert!(is_syn(&hops[0]) && hops[0].from() == client, "client opens");
    assert_eq!(hops[0].segments_left, None, "the client sends no SRH");
    let lb = hops[0].to;
    let NodeRole::Lb(j) = runner.role_of(lb) else {
        panic!("the client sends to a load balancer, not {lb:?}");
    };
    let lb_stats = &outcome.per_lb_stats[j];
    assert!(lb_stats.new_flows > 0 && lb_stats.flows_learned > 0);
    let hunt: Vec<&Hop> = hops[1..].iter().take_while(|h| is_syn(h)).collect();
    assert!(hunt.len() >= 2, "the first candidate passed the SYN on");
    assert_eq!(hunt[0].from(), lb, "the load balancer starts the hunt");
    let first_sl = hunt[0]
        .segments_left
        .expect("the hunted SYN carries an SRH");
    for (i, hop) in hunt.iter().enumerate() {
        assert_eq!(
            hop.segments_left,
            Some(first_sl - i as u8),
            "candidate {} is the SRH's next segment",
            i + 1
        );
        if i > 0 {
            assert_eq!(hop.from(), hunt[i - 1].to, "candidate {i} passes on");
            assert!(outcome.server_stats[server_of(hunt[i - 1].to)].passed_on > 0);
        }
    }
    let acceptor = hunt[hunt.len() - 1].to;
    let accepted = &outcome.server_stats[server_of(acceptor)];
    assert!(accepted.accepted_by_policy + accepted.forced_accepts > 0 && accepted.completed > 0);

    let rest = &hops[1 + hunt.len()..];
    let syn_ack = |h: &Hop| h.flags.contains(TcpFlags::SYN | TcpFlags::ACK);
    assert!(syn_ack(&rest[0]) && rest[0].from() == acceptor && rest[0].to == lb);
    assert!(syn_ack(&rest[1]) && rest[1].from() == lb && rest[1].to == client);
    let request = |h: &Hop| h.flags.contains(TcpFlags::PSH) && h.from() == client;
    let steered = rest
        .iter()
        .skip_while(|h| !request(h))
        .nth(1)
        .expect("the request is forwarded");
    assert_eq!(
        steered.to, acceptor,
        "the request is steered to the acceptor"
    );
    assert!(lb_stats.steered > 0);
    let response = rest.last().expect("the response closes the walk");
    assert_eq!((response.from(), response.to), (acceptor, client));
}

#[test]
fn the_figure_1_walk_prints_from_a_committed_spec() {
    let plan = AddressPlan::default();
    let spec = committed_spec("poisson_rho089", 300);
    let runner = Runner::new(spec.clone()).expect("committed spec is valid");
    let (observed, pass_ons) = runner.run_observed(PassOns::default());
    let plain = runner.run();
    assert_eq!(
        observed.collector.records(),
        plain.collector.records(),
        "watching a run does not change it"
    );
    assert_eq!(observed.events_processed, plain.events_processed);
    let &(addr, port) = pass_ons[0].0.first().expect("some first candidate refused");
    let id = request_id_of(&plan, addr, port).expect("a client endpoint");
    assert_eq!(request_endpoint(&plan, id), (addr, port));

    let (trace, outcome) = walk(&runner, id);
    println!("{}, request {id}:\n{trace}", spec.name);
    check_walk(&runner, trace.hops(), &outcome);

    for exec in [
        ExecMode::SerialStep,
        ExecMode::Sharded { threads: 2 },
        ExecMode::Sharded { threads: 4 },
    ] {
        let runner = Runner::new(spec.clone())
            .expect("valid")
            .with_exec(exec)
            .with_pool_policy(PoolPolicy::Force);
        assert_eq!(
            walk(&runner, id).0.hops(),
            trace.hops(),
            "{exec:?} records the batched walk"
        );
    }
}
