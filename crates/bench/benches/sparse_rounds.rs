//! Sparse-engine acceptance bench: the event-driven frontier engine must
//! beat the dense oracle by ≥ 5× on a late-round-heavy sweep.
//!
//! Two workload shapes at `n = 65536`:
//!
//! * **`luby_rounds` on a large cycle and a half-leaves caterpillar** —
//!   the realistic protocol half. Luby's undecided set shrinks
//!   geometrically per phase, so the frontier collapses after the first
//!   few rounds; the dense oracle still walks all `n` nodes every round.
//! * **a settled-tail beacon on the same cycle** — the long-tail half,
//!   modeling exactly what the frontier engine exists for (late rounds
//!   after almost everyone has halted, à la sinkless orientation once
//!   orientations settle): every node but one decides at birth, and a
//!   single beacon stays active for the full round horizon. The sparse
//!   engine executes `O(1)` nodes per tail round; the dense oracle pays
//!   `O(n + m)` for every one of them.
//!
//! Identity is asserted before timing: both engines must produce the same
//! outputs and trace on the exact instances being timed (the equivalence
//! contract CI pins with proptests), or the comparison is meaningless.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_algos::luby_rounds::DistributedLuby;
use lcl_graph::gen;
use lcl_local::{run_rounds, run_rounds_dense, IdAssignment, Network, NodeCtx, RoundAlgorithm};
use rand_chacha::ChaCha8Rng;

const N: usize = 65536;
/// The `luby_rounds` round cap for `n = 65536`.
const CAP: u32 = 16 * (16 + 4);
/// The beacon horizon: the settled-tail half runs 4× the Luby round
/// budget, since its whole point is the long tail after settlement.
const TAIL_HORIZON: u32 = 4 * CAP;

/// The settled-network long tail, distilled: the node with id 1 broadcasts
/// a tick counter until the horizon and only then decides; every other
/// node decides at birth and stays inert. From round 2 on, the active
/// frontier is the beacon and its neighbors — while a dense engine still
/// calls `send`/`receive` on all `n` nodes and walks the whole port table
/// to route, every round, for the entire horizon.
struct SettledTail {
    horizon: u32,
}

struct TailState {
    is_beacon: bool,
    ticks: u32,
}

impl RoundAlgorithm for SettledTail {
    type State = TailState;
    type Msg = u32;
    type Output = u32;

    fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> TailState {
        TailState { is_beacon: ctx.id == 1, ticks: 0 }
    }

    fn send(&self, state: &TailState, ctx: &NodeCtx, mut out: impl FnMut(usize, u32)) {
        if state.is_beacon && state.ticks < self.horizon {
            (0..ctx.degree).for_each(|p| out(p, state.ticks));
        }
    }

    fn receive<'m>(
        &self,
        state: &mut TailState,
        _c: &NodeCtx,
        _i: impl Iterator<Item = (usize, &'m u32)>,
        _r: &mut ChaCha8Rng,
    ) {
        // Settled nodes are inert whatever the beacon showers on them; the
        // beacon itself sent this round, so it may advance (the contract
        // only binds silent-and-deaf nodes).
        if state.is_beacon {
            state.ticks += 1;
        }
    }

    fn output(&self, state: &TailState, _ctx: &NodeCtx) -> Option<u32> {
        if !state.is_beacon {
            return Some(0);
        }
        (state.ticks >= self.horizon).then_some(1)
    }
}

/// The sweep: `(name, network, runner)` cells at `n = 65536`.
enum Work {
    Luby,
    Tail,
}

fn workloads() -> Vec<(&'static str, Network, Work)> {
    let assign = |g| Network::new(g, IdAssignment::Shuffled { seed: 9 });
    vec![
        ("luby/cycle", assign(gen::cycle(N)), Work::Luby),
        ("luby/caterpillar", assign(gen::caterpillar(N / 2, N / 2, 5)), Work::Luby),
        ("settled-tail/cycle", assign(gen::cycle(N)), Work::Tail),
    ]
}

/// Runs one cell on the chosen engine and digests the outcome so the work
/// cannot be optimized out. Every run must complete within the cap.
fn run_cell(net: &Network, work: &Work, seed: u64, sparse: bool) -> usize {
    let out = match (work, sparse) {
        (Work::Luby, true) => {
            let o = run_rounds(net, &DistributedLuby, seed, CAP);
            (o.trace, o.outputs.iter().filter(|x| x.is_some()).count())
        }
        (Work::Luby, false) => {
            let o = run_rounds_dense(net, &DistributedLuby, seed, CAP);
            (o.trace, o.outputs.iter().filter(|x| x.is_some()).count())
        }
        (Work::Tail, true) => {
            let o = run_rounds(net, &SettledTail { horizon: TAIL_HORIZON }, seed, TAIL_HORIZON + 1);
            (o.trace, o.outputs.iter().filter(|x| x.is_some()).count())
        }
        (Work::Tail, false) => {
            let o = run_rounds_dense(
                net,
                &SettledTail { horizon: TAIL_HORIZON },
                seed,
                TAIL_HORIZON + 1,
            );
            (o.trace, o.outputs.iter().filter(|x| x.is_some()).count())
        }
    };
    assert!(out.0.completed, "workload must complete within the cap");
    out.0.rounds as usize + out.1
}

fn sweep(cells: &[(&'static str, Network, Work)], sparse: bool) -> usize {
    let mut acc = 0;
    for (_, net, work) in cells {
        for seed in [1u64, 2] {
            acc += run_cell(net, work, seed, sparse);
        }
    }
    acc
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let cells = workloads();

    let mut group = c.benchmark_group("sparse-rounds");
    group.sample_size(10);
    for (name, net, work) in &cells {
        group.bench_with_input(BenchmarkId::new("dense", name), net, |b, net| {
            b.iter(|| run_cell(net, work, 1, false));
        });
        group.bench_with_input(BenchmarkId::new("sparse", name), net, |b, net| {
            b.iter(|| run_cell(net, work, 1, true));
        });
    }
    group.finish();

    // Identity first: the frontier engine must be bit-identical to the
    // dense oracle on the exact instances being timed.
    for (name, net, work) in &cells {
        match work {
            Work::Luby => {
                let dense = run_rounds_dense(net, &DistributedLuby, 7, CAP);
                let sparse = run_rounds(net, &DistributedLuby, 7, CAP);
                assert_eq!(sparse.outputs, dense.outputs, "{name}: engines diverged");
                assert_eq!(sparse.trace, dense.trace, "{name}: traces diverged");
            }
            Work::Tail => {
                let alg = SettledTail { horizon: TAIL_HORIZON };
                let dense = run_rounds_dense(net, &alg, 7, TAIL_HORIZON + 1);
                let sparse = run_rounds(net, &alg, 7, TAIL_HORIZON + 1);
                assert_eq!(sparse.outputs, dense.outputs, "{name}: engines diverged");
                assert_eq!(sparse.trace, dense.trace, "{name}: traces diverged");
            }
        }
    }

    // The acceptance criterion, asserted so a perf regression fails loudly
    // when the bench binary runs: the sparse engine completes the sweep
    // (all workloads × two seeds) ≥ 5× faster than the dense oracle. Both
    // sides are warmed and take the minimum of 3 timed sweeps, so one
    // scheduler hiccup cannot fail the gate spuriously.
    let timed_min = |f: &mut dyn FnMut() -> usize| {
        let warm = f();
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            assert_eq!(f(), warm);
            best = best.min(t.elapsed());
        }
        (warm, best)
    };
    let (a, dense) = timed_min(&mut || sweep(&cells, false));
    let (b, sparse) = timed_min(&mut || sweep(&cells, true));
    assert_eq!(a, b, "engines disagreed on the sweep digest");
    let ratio = dense.as_secs_f64() / sparse.as_secs_f64().max(1e-9);
    println!("acceptance: dense {dense:?} vs sparse {sparse:?} ({ratio:.1}x)");
    // Publish the machine-readable trajectory point before asserting, so a
    // failing gate still records what it measured.
    let gate = lcl_report::BenchGate::new(
        "sparse_rounds",
        5.0,
        ratio,
        "x",
        N,
        "luby:cycle+caterpillar,settled-tail:cycle",
    );
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_sparse_rounds.json not written: {e}"),
    }
    assert!(
        dense.as_secs_f64() >= 5.0 * sparse.as_secs_f64(),
        "event-driven engine must be >= 5x faster on the late-round-heavy sweep: \
         dense {dense:?}, sparse {sparse:?}"
    );
}

criterion_group!(benches, bench_sparse_vs_dense);
criterion_main!(benches);
