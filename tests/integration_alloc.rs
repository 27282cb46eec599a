//! The allocation-free hot-path contract.
//!
//! The substrate's arenas, pools, and dense tables exist so that a
//! steady-state repetition loop — send/recv messages, enqueue copies —
//! touches the allocator zero times once warm. This test pins that down
//! with a counting global allocator: warm each world up, snapshot the
//! allocation counter, run the steady-state loop, and assert the counter
//! did not move. Re-arming a warm world for the next rep allocates
//! nothing either, nor do the OSU size loop that skips its warm-ups and
//! Comm|Scope's closed-form adaptive search. The same holds for rendering a cached answer: a warm
//! render writes straight into a reused buffer.
//!
//! Every steady-state loop runs on the test's own thread, so the counter
//! is per thread. A process-wide counter also saw the test harness's own
//! bookkeeping: libtest's main thread makes 4 allocations after spawning
//! the test, and on a loaded host they landed inside the first phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation events (alloc/realloc/alloc_zeroed); frees are not
/// interesting here — a hot path that only frees still shrinks arenas.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it from
    // inside the allocator never allocates.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    ALLOC_EVENTS.with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// thread-local side-channel and does not affect allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events this thread made while `f` ran.
fn alloc_delta(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.with(Cell::get);
    f();
    ALLOC_EVENTS.with(Cell::get) - before
}

use std::sync::Arc;

use doebench::commscope::search::per_iteration;
use doebench::gpurt::testkit::dual_gpu_runtime;
use doebench::gpurt::{Buffer, GpuRuntime};
use doebench::mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId, Rank};
use doebench::query::{run_query, Query, QueryResult};
use doebench::report::Format;
use doebench::simtime::{SimDuration, SimRng};
use doebench::topo::{CoreId, DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

fn two_numa_topo() -> Arc<doebench::topo::NodeTopology> {
    Arc::new(
        NodeBuilder::new("alloc-test")
            .socket("A")
            .socket("B")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 4, 1)
            .cores(NumaId(1), 4, 1)
            .devices("G", NumaId(0), 1)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::Upi,
                SimDuration::from_ns(200.0),
                40.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .build()
            .expect("valid topology"),
    )
}

/// A node world with one rank per NUMA domain, so every message crosses
/// the socket link (dense ports + route table + class-pair path memo all
/// in play).
fn node_pair() -> (MpiSim, Rank, Rank) {
    let mut w = MpiSim::new(two_numa_topo(), MpiConfig::default_host(), 7);
    let a = w.add_host_rank(CoreId(0)).expect("core 0");
    let b = w.add_host_rank(CoreId(4)).expect("core 4");
    (w, a, b)
}

/// A fabric world with its ranks in two switch groups, so every message
/// crosses a global link (the contended path, priced at every send).
fn fabric_pair() -> (MpiSim, Rank, Rank) {
    let fabric = Fabric::new(FabricConfig::slingshot_like());
    let mut w = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), 11).expect("valid config");
    let a = w.add_node_rank(NodeId(0)).expect("node 0");
    let b = w.add_node_rank(NodeId(16)).expect("node 16");
    (w, a, b)
}

fn mpisim_phase((mut w, a, b): (MpiSim, Rank, Rank), checks: bool) -> u64 {
    if checks {
        w.enable_checks();
    }
    // Warm-up: fill the path memo, route table, message queue capacity,
    // and (under --check) the vector-clock snapshot pool.
    for _ in 0..8 {
        w.send(a, b, 8).expect("send");
        w.recv(b, a, 8).expect("recv");
        w.send(b, a, 8).expect("send");
        w.recv(a, b, 8).expect("recv");
    }
    let delta = alloc_delta(|| {
        // Steady state: an eager pingpong, 10k round trips.
        for _ in 0..10_000 {
            w.send(a, b, 8).expect("send");
            w.recv(b, a, 8).expect("recv");
            w.send(b, a, 8).expect("send");
            w.recv(a, b, 8).expect("recv");
        }
    });
    assert!(w.check_findings().is_empty(), "pingpong must be clean");
    delta
}

/// `MpiSim::pingpong` in the OSU shape (timed loop, barrier) at an eager
/// and a rendezvous size: the fast-forward keeps its boundary scratch in
/// the world, so a warm world runs whole ping-pongs without allocating —
/// and under --check, where every round trip runs op by op, neither does
/// the full loop.
fn mpisim_pingpong_phase((mut w, a, b): (MpiSim, Rank, Rank), checks: bool) -> u64 {
    if checks {
        w.enable_checks();
    }
    let sizes = [8, w.config().eager_threshold + 1];
    // Warm-up: path memo, route table, mailbox capacity, the boundary
    // scratch and (under --check) the clock pool and barrier LUB.
    for bytes in sizes {
        w.pingpong(a, b, bytes, 8).expect("warm-up");
        w.barrier();
    }
    let delta = alloc_delta(|| {
        for _ in 0..20 {
            for bytes in sizes {
                w.pingpong(a, b, bytes, 1_000).expect("pingpong");
                w.barrier();
            }
        }
    });
    assert!(w.check_findings().is_empty(), "pingpong must be clean");
    delta
}

/// `MpiSim::rearm` between OSU-shaped reps: re-arming a warm world
/// redraws its run factor and zeroes its clocks and ports in place, so a
/// rep loop that re-arms one world allocates nothing per rep.
fn mpisim_rearm_phase() -> u64 {
    let (mut w, a, b) = node_pair();
    let sizes = [8, w.config().eager_threshold + 1];
    let rep = |w: &mut MpiSim, seed: u64| {
        assert!(w.rearm(seed), "a quiescent unchecked world re-arms");
        for bytes in sizes {
            w.barrier();
            w.pingpong(a, b, bytes, 100).expect("pingpong");
        }
    };
    // Warm-up: path memo, mailbox capacity, the boundary scratch.
    rep(&mut w, 1);
    alloc_delta(|| {
        for seed in 2..200 {
            rep(&mut w, seed);
        }
    })
}

/// The OSU size loop as the latency campaign runs it on a world that
/// fast-forwards: per rep a re-arm, then per size a barrier and the timed
/// loop, with no warm-up. A warm world runs the whole ladder without
/// allocating.
fn osu_size_loop_phase() -> u64 {
    let (mut w, a, b) = node_pair();
    let sizes: Vec<u64> = doebench::osu::OsuConfig::paper().sizes;
    let rep = |w: &mut MpiSim, seed: u64| {
        assert!(w.rearm(seed), "a quiescent unchecked world re-arms");
        for &bytes in &sizes {
            w.barrier();
            assert!(w.fast_forwards(), "the warm-up is skipped");
            w.pingpong(a, b, bytes, 100).expect("timed loop");
        }
    };
    // Warm-up: path memo, mailbox capacity, the boundary scratch.
    rep(&mut w, 1);
    alloc_delta(|| {
        for seed in 2..50 {
            rep(&mut w, seed);
        }
    })
}

fn gpurt_phase() -> u64 {
    let mut rt = dual_gpu_runtime();
    let s = rt.create_stream(DeviceId(0)).expect("stream");
    let host = Buffer::pinned_host(NumaId(0), 1 << 20);
    let dev = Buffer::device(DeviceId(0), 1 << 20);
    let peer = Buffer::device(DeviceId(1), 1 << 20);
    // Warm-up: route table, wire engines, stream state.
    for _ in 0..8 {
        rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
        rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
        rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
        rt.stream_synchronize(&s).expect("sync");
    }
    alloc_delta(|| {
        // Steady state: the commscope memcpy inner loop shape.
        for _ in 0..10_000 {
            rt.memcpy_async(&dev, &host, 4096, &s).expect("h2d");
            rt.memcpy_async(&peer, &dev, 4096, &s).expect("d2d");
            rt.memcpy_async(&host, &peer, 4096, &s).expect("d2h");
            rt.stream_synchronize(&s).expect("sync");
        }
    })
}

/// `GpuRuntime::repeat` over the Comm|Scope loop bodies (H2D and D2D
/// memcpy + sync, launch, device sync): the fast-forward keeps its
/// boundary scratch in the runtime, so a warm runtime runs whole batches
/// without allocating — and under --check, where every iteration runs op
/// by op, neither does the full loop.
fn gpurt_repeat_phase(checks: bool) -> u64 {
    let mut rt = dual_gpu_runtime();
    if checks {
        rt.enable_checks();
    }
    let s = rt.default_stream(DeviceId(0)).expect("stream");
    let host = Buffer::pinned_host(NumaId(0), 128);
    let dev = Buffer::device(DeviceId(0), 128);
    let peer = Buffer::device(DeviceId(1), 128);
    let batch = |rt: &mut GpuRuntime, iters: u64| {
        rt.repeat(iters, |rt| {
            rt.memcpy_async(&dev, &host, 128, &s)?;
            rt.stream_synchronize(&s)
        })
        .expect("h2d");
        rt.repeat(iters, |rt| {
            rt.memcpy_async(&peer, &dev, 128, &s)?;
            rt.stream_synchronize(&s)
        })
        .expect("d2d");
        rt.repeat(iters, |rt| rt.launch_empty(&s)).expect("launch");
        rt.repeat(iters, GpuRuntime::device_synchronize)
            .expect("device sync");
    };
    // Warm-up: route table, wire engines, the boundary scratch and (under
    // --check) the stream clocks and buffer histories.
    batch(&mut rt, 64);
    let delta = alloc_delta(|| {
        for _ in 0..20 {
            batch(&mut rt, 1_000);
        }
    });
    assert!(rt.check_findings().is_empty(), "batches must be clean");
    delta
}

/// `GpuRuntime::launch_train` and `launch_empty_train` in the BabelStream
/// and Comm|Scope shapes (a train, then a stream sync): the closed form
/// touches only the clock and one stream tail, and under --check, where
/// every launch runs one by one, the warm stream clock takes every tick
/// in place.
fn gpurt_launch_train_phase(checks: bool) -> u64 {
    let mut rt = dual_gpu_runtime();
    if checks {
        rt.enable_checks();
    }
    let s = rt.default_stream(DeviceId(0)).expect("stream");
    let kernel = SimDuration::from_us(3.0);
    let batch = |rt: &mut GpuRuntime, n: u64| {
        rt.launch_train(&s, kernel, n).expect("kernel train");
        rt.stream_synchronize(&s).expect("sync");
        rt.launch_empty_train(&s, n).expect("empty train");
        rt.stream_synchronize(&s).expect("sync");
    };
    // Warm-up: the stream engine and (under --check) the stream clock.
    batch(&mut rt, 8);
    let delta = alloc_delta(|| {
        for _ in 0..20 {
            batch(&mut rt, 1_000);
        }
    });
    assert!(rt.check_findings().is_empty(), "trains must be clean");
    delta
}

/// `GpuRuntime::rearm` between Comm|Scope-shaped reps: re-arming a warm
/// runtime rescales its driver costs, drops its extra streams and wires
/// and zeroes its clock in place, so a rep that creates a stream and a
/// wire again refills the same buffers and allocates nothing.
fn gpurt_rearm_phase() -> u64 {
    let mut rt = dual_gpu_runtime();
    let host = Buffer::pinned_host(NumaId(0), 128);
    let dev = Buffer::device(DeviceId(0), 128);
    let peer = Buffer::device(DeviceId(1), 128);
    let rep = |rt: &mut GpuRuntime, seed: u64| {
        assert!(rt.rearm(seed), "an unchecked, untraced runtime re-arms");
        rt.set_device(DeviceId(1)).expect("device 1");
        let s = rt.create_stream(DeviceId(0)).expect("stream");
        rt.repeat(50, |rt| {
            rt.memcpy_async(&dev, &host, 128, &s)?;
            rt.memcpy_async(&peer, &dev, 128, &s)?;
            rt.stream_synchronize(&s)
        })
        .expect("copies");
        rt.launch_empty_train(&s, 50).expect("launch");
        rt.device_synchronize().expect("sync");
    };
    // Warm-up: stream and wire tables, the boundary scratch.
    rep(&mut rt, 1);
    alloc_delta(|| {
        for seed in 2..200 {
            rep(&mut rt, seed);
        }
    })
}

/// Comm|Scope's closed-form adaptive search in its rep shape: re-arm,
/// then the copy and wait searches through `search::per_iteration`, whose
/// two probe iterations confirm the period, and the launch search on the
/// times of one launch. A warm runtime runs every search without
/// allocating.
fn commscope_closed_form_phase() -> u64 {
    let mut rt = dual_gpu_runtime();
    let host = Buffer::pinned_host(NumaId(0), 128);
    let dev = Buffer::device(DeviceId(0), 128);
    let peer = Buffer::device(DeviceId(1), 128);
    let cfg = doebench::commscope::CommScopeConfig::paper().adaptive;
    let rep = |rt: &mut GpuRuntime, seed: u64| {
        assert!(rt.rearm(seed), "an unchecked, untraced runtime re-arms");
        assert!(rt.fast_forwards(), "the closed forms apply");
        let s = rt.default_stream(DeviceId(0)).expect("stream");
        for (dst, src) in [(&dev, &host), (&host, &dev), (&peer, &dev)] {
            let copy = |rt: &mut GpuRuntime| {
                rt.memcpy_async(dst, src, 128, &s)?;
                rt.stream_synchronize(&s)
            };
            assert!(rt.period(copy).expect("copy").is_some(), "periodic");
            per_iteration(rt, cfg, copy);
        }
        per_iteration(rt, cfg, GpuRuntime::device_synchronize);
        let launch = rt.launch_empty_train(&s, 1).expect("launch");
        doebench::benchlib::adaptive_iterations(cfg, |n| launch * n);
    };
    // Warm-up: stream and wire tables, the boundary scratch.
    rep(&mut rt, 1);
    alloc_delta(|| {
        for seed in 2..200 {
            rep(&mut rt, seed);
        }
    })
}

/// `NodeTopology::route_costs` over every ordered vertex pair of every
/// catalog topology: once a topology's table is filled, a lookup is an
/// index into it.
fn route_table_phase() -> u64 {
    let topos: Vec<_> = doebench::machines::catalog()
        .iter()
        .map(|m| {
            let vs = m.topo.vertices();
            let pairs: Vec<(Vertex, Vertex)> = vs
                .iter()
                .flat_map(|&a| vs.iter().map(move |&b| (a, b)))
                .collect();
            (Arc::clone(&m.topo), pairs)
        })
        .collect();
    // Warm: the first lookup of a pair of distinct vertices fills a table.
    for (t, pairs) in &topos {
        for &(a, b) in pairs {
            t.route_costs(a, b);
        }
    }
    alloc_delta(|| {
        for _ in 0..100 {
            for (t, pairs) in &topos {
                for &(a, b) in pairs {
                    std::hint::black_box(t.route_costs(a, b));
                }
            }
        }
    })
}

fn noise_phase() -> u64 {
    let mut rng = SimRng::from_seed(3);
    let mut buf = vec![0.0f64; 256];
    // Warm: nothing to warm — the buffer is caller-owned.
    alloc_delta(|| {
        for _ in 0..1_000 {
            rng.fill_gaussian(&mut buf);
        }
    })
}

/// `QueryResult::write_body` of warm `suite@paper` and sweep answers in
/// all four formats: once the body buffer and this thread's cell arena
/// have grown to the largest body, a render touches the allocator zero
/// times.
fn render_phase() -> u64 {
    let results: Vec<QueryResult> = ["suite@paper", "sweep Frontier Summit"]
        .iter()
        .map(|q| run_query(&Query::parse_shorthand(q).expect("parses")).expect("runs"))
        .collect();
    let formats = [Format::Json, Format::Ascii, Format::Markdown, Format::Csv];
    let mut body = String::new();
    let render_all = |body: &mut String| {
        for r in &results {
            for f in formats {
                body.clear();
                r.write_body(f, body);
                std::hint::black_box(&*body);
            }
        }
    };
    render_all(&mut body);
    alloc_delta(|| {
        for _ in 0..20 {
            render_all(&mut body);
        }
    })
}

#[test]
fn steady_state_hot_paths_allocate_nothing() {
    // (phase name, allocation events during steady state)
    let phases = [
        ("mpisim pingpong", mpisim_phase(node_pair(), false)),
        (
            "mpisim pingpong under --check",
            mpisim_phase(node_pair(), true),
        ),
        (
            "mpisim pingpong fast-forward",
            mpisim_pingpong_phase(node_pair(), false),
        ),
        (
            "mpisim pingpong (op by op) under --check",
            mpisim_pingpong_phase(node_pair(), true),
        ),
        ("mpisim fabric pingpong", mpisim_phase(fabric_pair(), false)),
        (
            "mpisim fabric pingpong under --check",
            mpisim_phase(fabric_pair(), true),
        ),
        (
            "mpisim fabric pingpong fast-forward",
            mpisim_pingpong_phase(fabric_pair(), false),
        ),
        ("mpisim rearm between reps", mpisim_rearm_phase()),
        ("osu size loop without warm-ups", osu_size_loop_phase()),
        ("gpurt memcpy loop", gpurt_phase()),
        ("gpurt repeat fast-forward", gpurt_repeat_phase(false)),
        (
            "gpurt repeat (op by op) under --check",
            gpurt_repeat_phase(true),
        ),
        ("gpurt launch train", gpurt_launch_train_phase(false)),
        (
            "gpurt launch train (launch by launch) under --check",
            gpurt_launch_train_phase(true),
        ),
        ("gpurt rearm between reps", gpurt_rearm_phase()),
        (
            "commscope closed-form search",
            commscope_closed_form_phase(),
        ),
        ("route table lookups", route_table_phase()),
        ("batch gaussian fill", noise_phase()),
        ("query body render", render_phase()),
    ];
    let dirty: Vec<String> = phases
        .iter()
        .filter(|(_, d)| *d > 0)
        .map(|(name, d)| format!("{name}: {d} allocation(s)"))
        .collect();
    assert!(
        dirty.is_empty(),
        "steady-state hot paths must not allocate:\n{}",
        dirty.join("\n")
    );
}
