//! Micro-benchmarks for the protocol hot paths: message construction and
//! verification, the message store, and the per-packet dissemination handler
//! (signature check + store + forwarding decision).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use byzcast_core::message::{DataMsg, GossipMsg, WireMsg};
use byzcast_core::store::MessageStore;
use byzcast_core::{ByzcastConfig, ByzcastNode};
use byzcast_crypto::{KeyRegistry, SignerId, SimScheme, Verifier};
use byzcast_sim::node::Action;
use byzcast_sim::{Context, NodeId, Protocol, SimDuration, SimRng, SimTime};

fn keys() -> KeyRegistry<SimScheme> {
    KeyRegistry::generate(7, 64)
}

fn bench_data_msg(c: &mut Criterion) {
    let reg = keys();
    let signer = reg.signer(SignerId(0));
    let verifier = reg.verifier();
    c.bench_function("data_msg/sign", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            DataMsg::sign(&signer, seq, seq, 512)
        })
    });
    let m = DataMsg::sign(&signer, 1, 1, 512);
    c.bench_function("data_msg/verify", |b| {
        b.iter(|| black_box(m).verify(&verifier))
    });
}

fn bench_store(c: &mut Criterion) {
    let reg = keys();
    let signer = reg.signer(SignerId(0));
    let msgs: Vec<Arc<DataMsg>> = (0..1000)
        .map(|s| Arc::new(DataMsg::sign(&signer, s, s, 512)))
        .collect();
    c.bench_function("store/insert_1000_purge", |b| {
        b.iter(|| {
            let mut store = MessageStore::new(SimDuration::from_secs(10));
            for (i, m) in msgs.iter().enumerate() {
                store.insert(SimTime::from_millis(i as u64), Arc::clone(m));
            }
            store.purge(SimTime::from_secs(30));
            black_box(store.high_water())
        })
    });
}

/// Drives one `on_packet` of a fresh data message through a ByzcastNode —
/// the per-reception cost on the fast path.
fn bench_handle_data(c: &mut Criterion) {
    let reg = keys();
    let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
    let origin_signer = reg.signer(SignerId(0));
    let mut group = c.benchmark_group("on_packet");
    for payload in [128u32, 1024] {
        group.bench_with_input(
            BenchmarkId::new("data", payload),
            &payload,
            |b, &payload| {
                let mut node = ByzcastNode::new(
                    NodeId(1),
                    ByzcastConfig::default(),
                    Box::new(reg.signer(SignerId(1))),
                    Arc::clone(&verifier),
                );
                let mut rng = SimRng::new(0);
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 1;
                    let m = DataMsg::sign(&origin_signer, seq, seq, payload);
                    let mut actions: Vec<Action<WireMsg>> = Vec::new();
                    let mut ctx =
                        Context::new(NodeId(1), SimTime::from_millis(seq), &mut rng, &mut actions);
                    node.on_packet(&mut ctx, NodeId(0), &WireMsg::data(m));
                    black_box(actions.len())
                })
            },
        );
    }
    group.finish();
}

/// Gossip packet processing: verifying and filing k aggregated entries.
fn bench_handle_gossip(c: &mut Criterion) {
    let reg = keys();
    let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
    let origin_signer = reg.signer(SignerId(0));
    let mut group = c.benchmark_group("on_packet/gossip_entries");
    for k in [1usize, 10, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut node = ByzcastNode::new(
                NodeId(1),
                ByzcastConfig::default(),
                Box::new(reg.signer(SignerId(1))),
                Arc::clone(&verifier),
            );
            let mut rng = SimRng::new(0);
            let mut base = 0u64;
            b.iter(|| {
                base += k as u64;
                let entries = (0..k as u64)
                    .map(|i| DataMsg::sign(&origin_signer, base + i, base + i, 512).gossip_entry())
                    .collect();
                let g = GossipMsg::of_entries(entries);
                let mut actions: Vec<Action<WireMsg>> = Vec::new();
                let mut ctx = Context::new(
                    NodeId(1),
                    SimTime::from_millis(base),
                    &mut rng,
                    &mut actions,
                );
                node.on_packet(&mut ctx, NodeId(2), &WireMsg::Gossip(g));
                black_box(actions.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_data_msg,
    bench_store,
    bench_handle_data,
    bench_handle_gossip
);
criterion_main!(benches);
