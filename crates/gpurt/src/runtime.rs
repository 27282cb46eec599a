//! The simulated device runtime.

use std::fmt::Write;
use std::sync::Arc;

use dessan::{AccessHistory, AccessKind, RuntimeChecks, VectorClock};
use doe_gpusim::GpuModel;
use doe_memmodel::{PlacementQuality, StreamOp};
use doe_simtime::steady::{self, Boundary, Parts};
use doe_simtime::{Engine, SimDuration, SimRng, SimTime, Trace};
use doe_topo::{DeviceId, NodeTopology, Vertex};

use crate::buffer::{Buffer, MemLoc};
use crate::error::GpuError;

/// Bandwidth derating for pageable (unpinned) host transfers, which stage
/// through a driver bounce buffer.
const UNPINNED_BW_FACTOR: f64 = 0.55;
/// Extra per-copy staging setup for pageable host transfers.
const UNPINNED_EXTRA_SETUP_US: f64 = 10.0;

/// A handle to an in-order stream on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHandle {
    device: DeviceId,
    idx: usize,
}

impl StreamHandle {
    /// The device this stream belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }
}

/// A copy decomposed for the occupancy model.
struct CopyParts {
    /// DMA setup + per-hop latencies: overlaps with other transfers.
    setup_and_latency: SimDuration,
    /// Time the payload occupies the bottleneck wire.
    serialization: SimDuration,
    /// The directed bottleneck link (`None` for intra-device copies).
    wire: Option<(Vertex, Vertex)>,
}

/// A recorded event: completion point of everything enqueued before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GpuEvent {
    completes_at: SimTime,
    /// Identity for the `--check` happens-before tracker (0 = untracked).
    id: u64,
}

/// A device's fixed driver-path costs, scaled by the run factor once per
/// arm, so an operation does no float rounding for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DriverCosts {
    launch: SimDuration,
    empty_kernel: SimDuration,
    stream_sync: SimDuration,
    sync: SimDuration,
}

impl DriverCosts {
    /// `m`'s driver costs, unscaled.
    fn of(m: &GpuModel) -> Self {
        DriverCosts {
            launch: m.launch_overhead,
            empty_kernel: m.empty_kernel_time,
            stream_sync: m.stream_sync_overhead,
            sync: m.sync_overhead,
        }
    }

    fn scaled(self, run_factor: f64) -> Self {
        DriverCosts {
            launch: self.launch * run_factor,
            empty_kernel: self.empty_kernel * run_factor,
            stream_sync: self.stream_sync * run_factor,
            sync: self.sync * run_factor,
        }
    }
}

/// The clock-component index reserved for the host thread.
const HOST_CLOCK: usize = 0;

/// Sanitizer state for one runtime: vector clocks for the host and each
/// stream, event clock snapshots, and per-buffer access histories. Purely
/// observational — it never touches the host clock, engines, or RNG, so a
/// checked run is bit-identical to an unchecked one.
#[derive(Debug)]
struct GpuChecks {
    handle: RuntimeChecks,
    host: VectorClock,
    /// Per device, per stream index: clock-component index + clock. Dense
    /// in both dimensions (stream indices are small and sequential), so
    /// the per-submission lookup is two array indexings instead of a tree
    /// walk.
    streams: Vec<Vec<Option<(usize, VectorClock)>>>,
    next_clock_idx: usize,
    /// Stream-clock snapshots of recorded events; event id `n` lives at
    /// index `n - 1` (0 means untracked). Slots are pooled: releasing an
    /// event returns its slot (and the clock's buffer) for the next
    /// record, so a record/release loop holds the arena flat instead of
    /// growing one snapshot per event.
    events: Vec<VectorClock>,
    /// Retired `events` slots, reused LIFO so the warmest buffer comes
    /// back first.
    event_free: Vec<u32>,
    /// Access history per buffer allocation id. Ids are process-global and
    /// sparse, but a runtime touches only a handful of buffers: linear
    /// scan beats hashing.
    buffers: Vec<(u64, AccessHistory)>,
    /// Scratch for the label of the access being logged, so a checked
    /// copy loop formats it without allocating.
    label: String,
}

impl GpuChecks {
    fn new(ndevices: usize) -> Self {
        let mut host = VectorClock::new();
        host.tick(HOST_CLOCK);
        GpuChecks {
            handle: RuntimeChecks::enabled(),
            host,
            streams: vec![Vec::new(); ndevices],
            next_clock_idx: HOST_CLOCK + 1,
            events: Vec::new(),
            event_free: Vec::new(),
            buffers: Vec::new(),
            label: String::new(),
        }
    }

    /// The clock slot for a stream, created (with a fresh component index)
    /// on first touch. An associated fn over the two fields it needs, so
    /// call sites can keep disjoint borrows of `host`/`events` alive.
    fn stream_slot<'a>(
        streams: &'a mut [Vec<Option<(usize, VectorClock)>>],
        next_clock_idx: &mut usize,
        key: (usize, usize),
    ) -> &'a mut (usize, VectorClock) {
        let lanes = &mut streams[key.0];
        if lanes.len() <= key.1 {
            lanes.resize(key.1 + 1, None);
        }
        lanes[key.1].get_or_insert_with(|| {
            let idx = *next_clock_idx;
            *next_clock_idx += 1;
            let mut vc = VectorClock::new();
            vc.tick(idx);
            (idx, vc)
        })
    }

    /// Host→stream edge paid by every submission: work enqueued on a
    /// stream happens-after everything the host did before enqueueing it.
    fn submit(&mut self, key: (usize, usize)) {
        self.host.tick(HOST_CLOCK);
        let (idx, vc) = Self::stream_slot(&mut self.streams, &mut self.next_clock_idx, key);
        let idx = *idx;
        vc.join_assign(&self.host);
        vc.tick(idx);
    }

    /// Snapshot the stream clock at an event record, into a recycled slot
    /// when one is free (`clone_from` reuses the retired clock's buffer,
    /// so the steady state of a record/release loop never allocates).
    fn record_event(&mut self, key: (usize, usize)) -> u64 {
        self.submit(key);
        let src = Self::stream_slot(&mut self.streams, &mut self.next_clock_idx, key);
        match self.event_free.pop() {
            Some(slot) => {
                self.events[slot as usize].clone_from(&src.1);
                u64::from(slot) + 1
            }
            None => {
                self.events.push(src.1.clone());
                self.events.len() as u64
            }
        }
    }

    /// Return an event's snapshot slot to the pool. A live snapshot is
    /// never the zero clock (`submit` ticks the stream before every
    /// record), so a zero clock marks an already-retired slot and a
    /// double release stays a no-op instead of aliasing two live events.
    fn release_event(&mut self, event_id: u64) {
        if let Some(ev) = event_id
            .checked_sub(1)
            .and_then(|i| self.events.get_mut(i as usize))
        {
            if *ev != VectorClock::new() {
                ev.reset();
                self.event_free.push((event_id - 1) as u32);
            }
        }
    }

    /// Event→stream edge (`cudaStreamWaitEvent`).
    fn wait_event(&mut self, key: (usize, usize), event_id: u64) {
        self.submit(key);
        if let Some(ev) = event_id
            .checked_sub(1)
            .and_then(|i| self.events.get(i as usize))
        {
            let (idx, vc) = Self::stream_slot(&mut self.streams, &mut self.next_clock_idx, key);
            let idx = *idx;
            vc.join_assign(ev);
            vc.tick(idx);
        }
    }

    /// Stream→host edge (`cudaStreamSynchronize`).
    fn host_join_stream(&mut self, key: (usize, usize)) {
        let (_, vc) = Self::stream_slot(&mut self.streams, &mut self.next_clock_idx, key);
        self.host.join_assign(vc);
        self.host.tick(HOST_CLOCK);
    }

    /// Event→host edge (`cudaEventSynchronize`).
    fn host_join_event(&mut self, event_id: u64) {
        if let Some(ev) = event_id
            .checked_sub(1)
            .and_then(|i| self.events.get(i as usize))
        {
            self.host.join_assign(ev);
            self.host.tick(HOST_CLOCK);
        }
    }

    /// All-streams→host edge for one device (`cudaDeviceSynchronize`).
    /// Visits streams in index order (same order the old sorted map gave).
    fn host_join_device(&mut self, dev_idx: usize) {
        if let Some(lanes) = self.streams.get(dev_idx) {
            for slot in lanes.iter().flatten() {
                self.host.join_assign(&slot.1);
            }
        }
        self.host.tick(HOST_CLOCK);
    }

    /// Log one buffer access by the stream at its current clock and report
    /// any conflicting access not ordered before it.
    fn access(&mut self, buf: &Buffer, kind: AccessKind, key: (usize, usize), what: &str) {
        let (idx, vc) = Self::stream_slot(&mut self.streams, &mut self.next_clock_idx, key);
        let (idx, now) = (*idx, &*vc);
        self.label.clear();
        // Writing to a `String` cannot fail.
        let _ = write!(self.label, "{what} on stream {}/{}", key.0, key.1);
        let hist = match self.buffers.iter().position(|(id, _)| *id == buf.id()) {
            Some(pos) => &mut self.buffers[pos].1,
            None => {
                self.buffers.push((buf.id(), AccessHistory::default()));
                let last = self.buffers.len() - 1;
                &mut self.buffers[last].1
            }
        };
        for race in hist.record(kind, idx, now, &self.label) {
            self.handle.report(
                "race",
                format!(
                    "buffer {:?}#{} ({} B): {race}",
                    buf.loc,
                    buf.id(),
                    buf.bytes
                ),
            );
        }
    }
}

impl GpuEvent {
    /// Virtual elapsed time from `earlier` to `self`.
    pub fn elapsed_since(&self, earlier: &GpuEvent) -> SimDuration {
        self.completes_at.saturating_since(earlier.completes_at)
    }
}

/// The CUDA/HIP-like runtime over a node's devices.
#[derive(Debug)]
pub struct GpuRuntime {
    topo: Arc<NodeTopology>,
    /// One model per device, in device-id order, shared by every runtime
    /// a campaign builds for the same node.
    models: Arc<[GpuModel]>,
    /// The virtual host clock.
    clock: SimTime,
    /// Common-mode run factor: one draw per runtime instance, scaling
    /// every driver-path cost. Run-to-run σ in the paper's Table 6 is a
    /// common mode (clocks, driver state); per-operation noise would
    /// average away over the thousands of operations each batch runs.
    run_factor: f64,
    /// [`SimRng::label_hash`] of the run factor's stream label, which
    /// names the node: hashed once per runtime, not per arm.
    rng_label: u64,
    /// Per device, in device-id order: its driver costs under `run_factor`.
    driver: Vec<DriverCosts>,
    /// Stream engines of every device, device-major: device `d`'s streams
    /// are `streams[lanes[d]..lanes[d + 1]]`, its default stream first.
    /// One flat table, so [`Self::repeat`] copies a boundary in one pass.
    streams: Vec<Engine>,
    lanes: Vec<usize>,
    /// Per directed link `(entry, exit)`: the index of its occupancy
    /// engine in `wires`, once the wire carries its first copy. Transfers
    /// serialize per direction (full-duplex links carry both directions
    /// concurrently), so concurrent same-direction copies queue while
    /// opposite directions overlap — the duplex behaviour Comm|Scope's
    /// `Duplex` tests exercise. Dense by directed vertex-pair index
    /// (`entry * nvertices + exit`), sized once at construction.
    wire_slots: Vec<Option<usize>>,
    /// Occupancy engines of the wires used so far, in creation order:
    /// compact, so [`Self::repeat`] scans the few live wires instead of
    /// the whole vertex-pair table.
    wires: Vec<Engine>,
    /// Vertex-numbering dimensions `(numa, device, total)` backing the
    /// wire-table indexing: numa domains first, then devices, then
    /// switches, each dense by id index.
    wire_dims: (usize, usize, usize),
    current: DeviceId,
    /// Optional operation trace (spans on per-stream / per-wire tracks).
    trace: Option<Trace>,
    /// Sanitizer state, present only under `--check`.
    checks: Option<Box<GpuChecks>>,
    /// The last recorded iteration boundary of [`Self::repeat`], kept
    /// across calls for its buffer.
    boundary: Boundary,
}

impl GpuRuntime {
    /// Build a runtime for `topo` with one [`GpuModel`] per device, in
    /// device-id order. `seed` drives measurement jitter. A campaign that
    /// builds a runtime per rep shares one model slice across all of them.
    ///
    /// # Panics
    /// Panics if the model count does not match the device count or the
    /// node has no devices.
    pub fn new(topo: Arc<NodeTopology>, models: Arc<[GpuModel]>, seed: u64) -> Self {
        assert!(
            !topo.devices.is_empty(),
            "GpuRuntime requires at least one device"
        );
        assert_eq!(
            models.len(),
            topo.devices.len(),
            "one GpuModel per device required"
        );
        // Device ids index the dense per-device tables (models, driver
        // costs, stream lanes), so a bounds check validates a device.
        assert!(
            topo.devices
                .iter()
                .enumerate()
                .all(|(i, d)| d.id.index() == i),
            "device ids must be dense"
        );
        let current = topo.devices[0].id;
        let n_numa = topo
            .numa_domains
            .iter()
            .map(|n| n.id.index() + 1)
            .max()
            .unwrap_or(0);
        let n_dev = topo.devices.len();
        let n_switch = topo
            .switches
            .iter()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);
        let nv = n_numa + n_dev + n_switch;
        let rng_label = SimRng::label_hash(&["gpurt/", &topo.name]);
        let mut rt = GpuRuntime {
            topo,
            models,
            clock: SimTime::ZERO,
            run_factor: 1.0,
            rng_label,
            driver: Vec::with_capacity(n_dev),
            streams: Vec::with_capacity(n_dev),
            lanes: Vec::with_capacity(n_dev + 1),
            wire_slots: vec![None; nv * nv],
            wires: Vec::new(),
            wire_dims: (n_numa, n_dev, nv),
            current,
            trace: None,
            checks: dessan::checks_enabled().then(|| Box::new(GpuChecks::new(n_dev))),
            boundary: Boundary::default(),
        };
        rt.arm(seed);
        rt
    }

    /// Make this runtime equal to a fresh [`Self::new`] with `seed` over
    /// the same node and models, keeping its allocations. Returns `false`,
    /// and changes nothing, under `--check` or while tracing: the caller
    /// then builds a fresh runtime, so the sanitizer and the trace see
    /// every rep from its start.
    pub fn rearm(&mut self, seed: u64) -> bool {
        if !self.fast_forwards() || dessan::checks_enabled() {
            return false;
        }
        self.arm(seed);
        true
    }

    /// Whether this runtime may compute work whose result its state fixes
    /// instead of simulating it: no checks and no tracing. Launch trains
    /// then take their closed form, [`Self::repeat`] fast-forwards a
    /// periodic loop and [`Self::period`] reports a loop's period
    /// (DESIGN.md §3). Otherwise every operation runs, so every vector
    /// clock ticks and every span is recorded.
    pub fn fast_forwards(&self) -> bool {
        self.checks.is_none() && self.trace.is_none()
    }

    /// The runtime in `slot`, re-armed for `seed`, or a fresh one in its
    /// place when the slot is empty, holds another node or models, or
    /// [`Self::rearm`] declines. A rep loop keeps one slot, so it builds a
    /// runtime once per loop rather than once per rep.
    pub fn rearmed<'a>(
        slot: &'a mut Option<GpuRuntime>,
        topo: &Arc<NodeTopology>,
        models: &Arc<[GpuModel]>,
        seed: u64,
    ) -> &'a mut GpuRuntime {
        let reusable = |rt: &mut GpuRuntime| {
            Arc::ptr_eq(&rt.topo, topo) && Arc::ptr_eq(&rt.models, models) && rt.rearm(seed)
        };
        let kept = slot
            .take()
            .and_then(|mut rt| reusable(&mut rt).then_some(rt));
        slot.insert(
            kept.unwrap_or_else(|| GpuRuntime::new(Arc::clone(topo), Arc::clone(models), seed)),
        )
    }

    /// Set the per-seed state, for [`Self::new`] and [`Self::rearm`]
    /// alike: draw the run factor and scale every device's driver costs
    /// by it (once per run of devices with equal costs, as the GCDs of an
    /// MI250X node are), zero the host clock, keep only the default
    /// streams, all idle, drop every wire and select device 0.
    fn arm(&mut self, seed: u64) {
        let mut rng = SimRng::labelled(seed, self.rng_label, 0);
        let run_factor = self.models[0].jitter.sample_scalar(1.0, &mut rng).max(0.05);
        self.run_factor = run_factor;
        self.driver.clear();
        let mut last: Option<(DriverCosts, DriverCosts)> = None;
        for m in self.models.iter() {
            let raw = DriverCosts::of(m);
            let scaled = match last {
                Some((prev, scaled)) if prev == raw => scaled,
                _ => raw.scaled(run_factor),
            };
            last = Some((raw, scaled));
            self.driver.push(scaled);
        }
        self.clock = SimTime::ZERO;
        let ndevices = self.topo.devices.len();
        self.streams.clear();
        self.streams.resize(ndevices, Engine::new());
        self.lanes.clear();
        self.lanes.extend(0..=ndevices);
        if !self.wires.is_empty() {
            self.wires.clear();
            self.wire_slots.fill(None);
        }
        self.current = self.topo.devices[0].id;
    }

    /// Turn the sanitizer on for this runtime regardless of the global
    /// `--check` switch (test fixtures).
    pub fn enable_checks(&mut self) {
        if self.checks.is_none() {
            self.checks = Some(Box::new(GpuChecks::new(self.topo.devices.len())));
        }
    }

    /// Findings the sanitizer has recorded against this runtime so far.
    /// Allocation-free when there is nothing to report (the common case).
    pub fn check_findings(&self) -> Vec<String> {
        match &self.checks {
            Some(c) if !c.handle.findings().is_empty() => {
                c.handle.findings().iter().map(|f| f.to_string()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Dense index of a vertex in the wire table's numbering.
    fn vertex_index(&self, v: Vertex) -> usize {
        let (n_numa, n_dev, _) = self.wire_dims;
        match v {
            Vertex::Numa(n) => n.index(),
            Vertex::Device(d) => n_numa + d.index(),
            Vertex::Switch(s) => n_numa + n_dev + s.index(),
        }
    }

    /// The occupancy engine of a directed wire, created on first use.
    fn wire_engine(&mut self, key: (Vertex, Vertex)) -> &mut Engine {
        let nv = self.wire_dims.2;
        let idx = self.vertex_index(key.0) * nv + self.vertex_index(key.1);
        let slot = match self.wire_slots[idx] {
            Some(slot) => slot,
            None => {
                self.wires.push(Engine::new());
                self.wire_slots[idx] = Some(self.wires.len() - 1);
                self.wires.len() - 1
            }
        };
        &mut self.wires[slot]
    }

    /// Declare the buffers a just-launched kernel reads and writes, so the
    /// `--check` race detector can order kernel accesses against copies
    /// and other kernels. Call immediately after the launch on the same
    /// stream. No-op when checks are off.
    pub fn annotate_kernel_buffers(
        &mut self,
        s: &StreamHandle,
        reads: &[Buffer],
        writes: &[Buffer],
    ) {
        if let Some(ch) = &mut self.checks {
            let key = (s.device.index(), s.idx);
            for b in reads {
                ch.access(b, AccessKind::Read, key, "kernel read");
            }
            for b in writes {
                ch.access(b, AccessKind::Write, key, "kernel write");
            }
        }
    }

    /// Start recording an operation trace (kernels, copies, syncs).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
    }

    /// Stop tracing and return what was recorded, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    fn trace_span(
        &mut self,
        name: impl Into<String>,
        category: &'static str,
        track: String,
        start: SimTime,
        duration: SimDuration,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.record(name, category, track, start, duration);
        }
    }

    fn stream_track(s: &StreamHandle) -> String {
        format!("{}/stream{}", s.device, s.idx)
    }

    /// Cold path: render a kernel span. Call sites gate on
    /// `self.trace.is_some()` so the untraced hot loop never builds the
    /// track strings.
    #[cold]
    fn trace_kernel(
        &mut self,
        name: &'static str,
        s: &StreamHandle,
        start: SimTime,
        duration: SimDuration,
    ) {
        self.trace_span(name, "gpu", Self::stream_track(s), start, duration);
    }

    /// Cold path: render the spans of one copy (the optional wire span and
    /// the stream-side span).
    #[cold]
    fn trace_copy(
        &mut self,
        bytes: u64,
        s: &StreamHandle,
        wire: Option<((Vertex, Vertex), SimTime, SimDuration)>,
        start: SimTime,
        completion: SimTime,
    ) {
        if let Some((key, wire_start, ser)) = wire {
            self.trace_span(
                format!("memcpy {bytes}B"),
                "wire",
                format!("{} -> {}", key.0, key.1),
                wire_start,
                ser,
            );
        }
        self.trace_span(
            format!("copy {bytes}B"),
            "gpu",
            Self::stream_track(s),
            start,
            completion.saturating_since(start),
        );
    }

    /// Cold path: render a host-side synchronize span.
    #[cold]
    fn trace_host_sync(&mut self, wait_from: SimTime, now: SimTime) {
        self.trace_span(
            "stream sync",
            "host",
            "host".to_string(),
            wait_from,
            now.saturating_since(wait_from),
        );
    }

    /// Cold path: a missing-route error (validated topologies always
    /// route, so this never runs in a campaign).
    #[cold]
    fn no_route_err(a: impl std::fmt::Display, b: impl std::fmt::Display) -> GpuError {
        GpuError::NoRoute(format!("{a} -> {b}"))
    }

    /// The node topology the runtime executes on.
    pub fn topology(&self) -> &NodeTopology {
        &self.topo
    }

    /// Model parameters of a device.
    pub fn model(&self, dev: DeviceId) -> Result<&GpuModel, GpuError> {
        self.models
            .get(dev.index())
            .ok_or(GpuError::InvalidDevice(dev))
    }

    /// The currently selected device (cf. `cudaSetDevice`).
    pub fn current_device(&self) -> DeviceId {
        self.current
    }

    /// Select the current device.
    pub fn set_device(&mut self, dev: DeviceId) -> Result<(), GpuError> {
        self.check_device(dev)?;
        self.current = dev;
        Ok(())
    }

    /// The virtual host clock (cf. `clock_gettime` in the benchmarks).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Create a new stream on `dev`.
    pub fn create_stream(&mut self, dev: DeviceId) -> Result<StreamHandle, GpuError> {
        self.check_device(dev)?;
        let d = dev.index();
        let at = self.lanes[d + 1];
        self.streams.insert(at, Engine::new());
        for end in &mut self.lanes[d + 1..] {
            *end += 1;
        }
        Ok(StreamHandle {
            device: dev,
            idx: at - self.lanes[d],
        })
    }

    /// The device's default stream.
    pub fn default_stream(&self, dev: DeviceId) -> Result<StreamHandle, GpuError> {
        self.check_device(dev)?;
        Ok(StreamHandle {
            device: dev,
            idx: 0,
        })
    }

    /// The position of stream `s` in `streams`.
    fn stream_index(&self, s: &StreamHandle) -> Result<usize, GpuError> {
        let d = s.device.index();
        match self.lanes.get(d..d + 2) {
            Some(&[lo, hi]) if lo + s.idx < hi => Ok(lo + s.idx),
            _ => Err(GpuError::InvalidStream),
        }
    }

    fn engine(&mut self, s: &StreamHandle) -> Result<&mut Engine, GpuError> {
        let i = self.stream_index(s)?;
        Ok(&mut self.streams[i])
    }

    fn jittered(&self, base: SimDuration) -> SimDuration {
        base * self.run_factor
    }

    /// The driver costs of a device (same validation as [`Self::model`]).
    fn driver(&self, dev: DeviceId) -> Result<DriverCosts, GpuError> {
        self.driver
            .get(dev.index())
            .copied()
            .ok_or(GpuError::InvalidDevice(dev))
    }

    /// `Ok` when `dev` is one of the node's devices: ids are dense, so it
    /// is a bounds check on the per-device tables.
    fn check_device(&self, dev: DeviceId) -> Result<(), GpuError> {
        if dev.index() < self.models.len() {
            Ok(())
        } else {
            Err(GpuError::InvalidDevice(dev))
        }
    }

    /// Launch an empty zero-argument kernel (Comm|Scope `cudart_kernel`).
    /// The host pays only the submission cost; execution is asynchronous.
    pub fn launch_empty(&mut self, s: &StreamHandle) -> Result<(), GpuError> {
        self.launch_empty_train(s, 1).map(drop)
    }

    /// Launch a kernel with a caller-computed device-side duration.
    pub fn launch_kernel(
        &mut self,
        s: &StreamHandle,
        device_time: SimDuration,
    ) -> Result<(), GpuError> {
        self.launch_train(s, device_time, 1).map(drop)
    }

    /// Launch `n` empty kernels back to back on `s`, as `n`
    /// [`Self::launch_empty`] calls would, and return the time that passed
    /// on the host clock. See [`Self::launch_train`].
    pub fn launch_empty_train(
        &mut self,
        s: &StreamHandle,
        n: u64,
    ) -> Result<SimDuration, GpuError> {
        let body = self.driver(s.device)?.empty_kernel;
        self.train(s, body, n, "empty kernel")
    }

    /// Launch `n` kernels of `device_time` back to back on `s`, as `n`
    /// [`Self::launch_kernel`] calls would, and return the time that
    /// passed on the host clock.
    ///
    /// The result and the runtime it leaves are bit-identical to the plain
    /// loop, in O(1): the launch cost `L` and the run time `B` (already
    /// scaled by the run factor) are fixed within a runtime, so the host
    /// clock moves by `n·L` and the stream tail becomes
    /// `max(tail₀ + n·B, now₀ + L + n·B, now₀ + n·L + B)`
    /// ([`Engine::enqueue_train`], DESIGN.md §3). Under checks or tracing
    /// the train runs launch by launch, so every vector clock ticks and
    /// every span is recorded.
    // doebench::hot
    pub fn launch_train(
        &mut self,
        s: &StreamHandle,
        device_time: SimDuration,
        n: u64,
    ) -> Result<SimDuration, GpuError> {
        let body = self.jittered(device_time);
        self.train(s, body, n, "kernel")
    }

    /// `n` launches of a kernel that runs `body` on the device.
    fn train(
        &mut self,
        s: &StreamHandle,
        body: SimDuration,
        n: u64,
        name: &'static str,
    ) -> Result<SimDuration, GpuError> {
        let launch = self.driver(s.device)?.launch;
        let i = self.stream_index(s)?;
        let t0 = self.clock;
        if self.fast_forwards() {
            self.streams[i].enqueue_train(t0 + launch, launch, body, n);
            self.clock += launch * n;
            return Ok(self.clock.since(t0));
        }
        for _ in 0..n {
            self.clock += launch;
            let now = self.clock;
            let (start, _end) = self.streams[i].enqueue(now, body);
            if self.trace.is_some() {
                self.trace_kernel(name, s, start, body);
            }
            if let Some(ch) = &mut self.checks {
                ch.submit((s.device.index(), s.idx));
            }
        }
        Ok(self.clock.since(t0))
    }

    /// Launch one BabelStream kernel over `n` f64 elements.
    pub fn launch_stream_op(
        &mut self,
        s: &StreamHandle,
        op: StreamOp,
        n: u64,
    ) -> Result<(), GpuError> {
        let t = self.model(s.device)?.stream_kernel_time(op, n);
        self.launch_kernel(s, t)
    }

    /// Asynchronous copy of `bytes` from `src` to `dst` on stream `s`
    /// (cf. `cudaMemcpyAsync` / `hipMemcpyAsync`).
    ///
    /// The copy's *setup + latency* portion overlaps freely with other
    /// transfers; its *serialization* occupies the bottleneck link in the
    /// traversal direction, so concurrent same-direction copies queue on
    /// the wire while opposite directions run duplex.
    // doebench::hot
    pub fn memcpy_async(
        &mut self,
        dst: &Buffer,
        src: &Buffer,
        bytes: u64,
        s: &StreamHandle,
    ) -> Result<(), GpuError> {
        let available = dst.bytes.min(src.bytes);
        if bytes > available {
            return Err(GpuError::CopyOutOfBounds {
                requested: bytes,
                available,
            });
        }
        let parts = self.copy_parts(dst.loc, src.loc, bytes, s.device)?;
        let launch = self.driver(s.device)?.launch;
        self.clock += launch;
        let now = self.clock;
        let overheads = self.jittered(parts.setup_and_latency);
        let ser = self.jittered(parts.serialization);
        let start = now.max(self.engine(s)?.busy_until());
        let mut wire_span = None;
        let completion = match parts.wire {
            Some(key) => {
                let at_wire = start + overheads;
                let (wire_start, wire_end) = self.wire_engine(key).enqueue(at_wire, ser);
                wire_span = Some((key, wire_start, ser));
                wire_end
            }
            None => start + overheads + ser,
        };
        self.engine(s)?.occupy_until(completion);
        if self.trace.is_some() {
            self.trace_copy(bytes, s, wire_span, start, completion);
        }
        if let Some(ch) = &mut self.checks {
            let key = (s.device.index(), s.idx);
            ch.submit(key);
            // Checked runs are diagnostic, not measured: the sanitizer's
            // label/history allocations are off the campaign's hot path.
            // doebench::cold-call
            ch.access(src, AccessKind::Read, key, "memcpy read");
            // doebench::cold-call
            ch.access(dst, AccessKind::Write, key, "memcpy write");
        }
        Ok(())
    }

    /// The device-side duration of a copy (setup + traversal), excluding
    /// the host submit cost, jitter, and any wire contention.
    pub fn copy_duration(
        &self,
        dst: MemLoc,
        src: MemLoc,
        bytes: u64,
        executing_dev: DeviceId,
    ) -> Result<SimDuration, GpuError> {
        let p = self.copy_parts(dst, src, bytes, executing_dev)?;
        Ok(p.setup_and_latency + p.serialization)
    }

    /// Decompose a copy into its overlap-friendly part (DMA setup + hop
    /// latencies) and the wire-occupying serialization, plus the directed
    /// bottleneck link it serializes on.
    // doebench::hot
    fn copy_parts(
        &self,
        dst: MemLoc,
        src: MemLoc,
        bytes: u64,
        executing_dev: DeviceId,
    ) -> Result<CopyParts, GpuError> {
        let m = self.model(executing_dev)?;
        match (src, dst) {
            (MemLoc::Host { .. }, MemLoc::Host { .. }) => Err(GpuError::HostToHost),
            (MemLoc::Device(a), MemLoc::Device(b)) if a == b => {
                // Intra-device copy: read + write through HBM; no wire.
                let bw = m.hbm.raw_sustained_bw(PlacementQuality::all_cores(65_536));
                Ok(CopyParts {
                    setup_and_latency: m.copy_setup_peer,
                    serialization: SimDuration::transfer(2 * bytes, bw),
                    wire: None,
                })
            }
            (MemLoc::Device(a), MemLoc::Device(b)) => {
                let route = self
                    .topo
                    .route_costs(Vertex::Device(a), Vertex::Device(b))
                    .ok_or_else(|| Self::no_route_err(a, b))?;
                Ok(CopyParts {
                    setup_and_latency: m.copy_setup_peer + route.latency,
                    serialization: SimDuration::transfer(bytes, route.bandwidth_gb_s),
                    wire: route.bottleneck,
                })
            }
            (MemLoc::Host { numa, pinned }, MemLoc::Device(d))
            | (MemLoc::Device(d), MemLoc::Host { numa, pinned }) => {
                let (from, to) = if matches!(src, MemLoc::Host { .. }) {
                    (Vertex::Numa(numa), Vertex::Device(d))
                } else {
                    (Vertex::Device(d), Vertex::Numa(numa))
                };
                let route = self
                    .topo
                    .route_costs(from, to)
                    .ok_or_else(|| Self::no_route_err(numa, d))?;
                let mut setup = m.copy_setup_host + route.latency;
                let mut bw = route.bandwidth_gb_s;
                if !pinned {
                    bw *= UNPINNED_BW_FACTOR;
                    setup += SimDuration::from_us(UNPINNED_EXTRA_SETUP_US);
                }
                Ok(CopyParts {
                    setup_and_latency: setup,
                    serialization: SimDuration::transfer(bytes, bw),
                    wire: route.bottleneck,
                })
            }
        }
    }

    /// Block the host until stream `s` drains, then pay the synchronize
    /// handshake (cf. `cudaStreamSynchronize`).
    // doebench::hot
    pub fn stream_synchronize(&mut self, s: &StreamHandle) -> Result<(), GpuError> {
        let sync = self.driver(s.device)?.stream_sync;
        let wait_from = self.clock;
        let tail = self.engine(s)?.busy_until();
        self.clock = self.clock.max(tail) + sync;
        let now = self.clock;
        if self.trace.is_some() {
            self.trace_host_sync(wait_from, now);
        }
        if let Some(ch) = &mut self.checks {
            ch.host_join_stream((s.device.index(), s.idx));
        }
        Ok(())
    }

    /// Block the host until every stream on the current device drains
    /// (cf. `cudaDeviceSynchronize`). On an empty queue this costs exactly
    /// the synchronize handshake — the paper's "Wait" column.
    pub fn device_synchronize(&mut self) -> Result<(), GpuError> {
        let dev = self.current;
        let sync = self.driver(dev)?.sync;
        let d = dev.index();
        let tail = self.streams[self.lanes[d]..self.lanes[d + 1]]
            .iter()
            .map(Engine::busy_until)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.clock = self.clock.max(tail) + sync;
        if let Some(ch) = &mut self.checks {
            ch.host_join_device(dev.index());
        }
        Ok(())
    }

    /// Record an event on `s`: it completes when everything already
    /// enqueued completes (cf. `cudaEventRecord`).
    pub fn event_record(&mut self, s: &StreamHandle) -> Result<GpuEvent, GpuError> {
        let at = self.engine(s)?.busy_until().max(self.clock);
        let id = match &mut self.checks {
            Some(ch) => ch.record_event((s.device.index(), s.idx)),
            None => 0,
        };
        Ok(GpuEvent {
            completes_at: at,
            id,
        })
    }

    /// Block the host until `e` completes (cf. `cudaEventSynchronize`).
    pub fn event_synchronize(&mut self, e: &GpuEvent) {
        self.clock = self.clock.max(e.completes_at);
        if let Some(ch) = &mut self.checks {
            ch.host_join_event(e.id);
        }
    }

    /// Retire a recorded event (cf. `cudaEventDestroy`): its sanitizer
    /// snapshot slot goes back to the pool for the next `event_record`.
    ///
    /// The handle — and any copy of it — must not be passed to
    /// `stream_wait_event`/`event_synchronize` afterwards: a later record
    /// may reuse the id, and the stale handle would order against the new
    /// snapshot. Timing queries (`elapsed_since`) stay valid because the
    /// completion time lives in the handle itself. Releasing twice, or
    /// releasing on an unchecked runtime (id 0), is a no-op.
    pub fn event_release(&mut self, e: GpuEvent) {
        if let Some(ch) = &mut self.checks {
            ch.release_event(e.id);
        }
    }

    /// Snapshot slots the sanitizer has ever allocated for events (live +
    /// pooled). Diagnostic: a record/release loop must plateau here.
    pub fn event_arena_len(&self) -> usize {
        self.checks.as_ref().map_or(0, |c| c.events.len())
    }

    /// Make everything subsequently enqueued on `s` wait for `e`
    /// (cf. `cudaStreamWaitEvent`) — the cross-stream dependency
    /// primitive pipelined benchmarks build on. Costs nothing on the host.
    ///
    /// Only [`GpuRuntime::event_record`] makes a [`GpuEvent`], so a wait
    /// always follows its record:
    ///
    /// ```
    /// # use doe_gpurt::testkit;
    /// # let mut rt = testkit::single_gpu_runtime();
    /// # let dev = rt.current_device();
    /// # let (s1, s2) = (rt.create_stream(dev).unwrap(), rt.create_stream(dev).unwrap());
    /// let done = rt.event_record(&s1).unwrap();
    /// rt.stream_wait_event(&s2, &done).unwrap();
    /// ```
    ///
    /// Waiting before the record does not compile:
    ///
    /// ```compile_fail
    /// # use doe_gpurt::testkit;
    /// # let mut rt = testkit::single_gpu_runtime();
    /// # let dev = rt.current_device();
    /// # let (s1, s2) = (rt.create_stream(dev).unwrap(), rt.create_stream(dev).unwrap());
    /// rt.stream_wait_event(&s2, &done).unwrap();
    /// let done = rt.event_record(&s1).unwrap();
    /// ```
    ///
    /// Nor does an event built by hand, whose fields are private:
    ///
    /// ```compile_fail
    /// # use doe_gpurt::testkit;
    /// # use doe_gpurt::runtime::GpuEvent;
    /// # use doe_simtime::SimTime;
    /// # let mut rt = testkit::single_gpu_runtime();
    /// # let dev = rt.current_device();
    /// # let s2 = rt.create_stream(dev).unwrap();
    /// let done = GpuEvent { completes_at: SimTime::ZERO, id: 0 };
    /// rt.stream_wait_event(&s2, &done).unwrap();
    /// ```
    pub fn stream_wait_event(&mut self, s: &StreamHandle, e: &GpuEvent) -> Result<(), GpuError> {
        let at = e.completes_at;
        self.engine(s)?.occupy_until(at);
        if let Some(ch) = &mut self.checks {
            ch.wait_event((s.device.index(), s.idx), e.id);
        }
        Ok(())
    }

    /// The instant stream `s` drains (a past instant when it is idle).
    pub fn stream_tail(&self, s: &StreamHandle) -> Result<SimTime, GpuError> {
        Ok(self.streams[self.stream_index(s)?].busy_until())
    }

    /// The instant the directed wire `from -> to` drains, or `None` while
    /// it has carried no copy (or is not a wire of this node).
    pub fn wire_tail(&self, from: Vertex, to: Vertex) -> Option<SimTime> {
        let nv = self.wire_dims.2;
        let (a, b) = (self.vertex_index(from), self.vertex_index(to));
        if a >= nv || b >= nv {
            return None;
        }
        let slot = self.wire_slots[a * nv + b]?;
        Some(self.wires[slot].busy_until())
    }

    /// Run `op` `iters` times, as a plain loop would, and return the time
    /// that passed on the host clock.
    ///
    /// The result and the runtime it leaves are bit-identical to the plain
    /// loop: every cost is drawn once per runtime, so [`steady::repeat`]
    /// skips the iterations after the host clock, the current device and
    /// every stream and wire tail reach a steady state (DESIGN.md §3).
    ///
    /// `op` must depend on the runtime only through that state: no
    /// instants or events carried in from before the iteration. The
    /// shortcut is off while checks or tracing are on, so checked runs
    /// tick every vector clock and traces show every span.
    // doebench::hot
    pub fn repeat(
        &mut self,
        iters: u64,
        op: impl Fn(&mut GpuRuntime) -> Result<(), GpuError>,
    ) -> Result<SimDuration, GpuError> {
        let t0 = self.clock;
        let fast = self.fast_forwards();
        steady::repeat(self, iters, fast, Self::steady_parts, op)?;
        Ok(self.clock.since(t0))
    }

    /// Run `op` twice and return its period: `Some(P)` when the first
    /// iteration took `P` on the host clock and left a state that the
    /// second repeats `P` later ([`steady::period`]). Then every
    /// iteration of the loop, these two and any run after them, takes
    /// exactly `P`: a batch of `n` takes `n·P` however the loop is split
    /// into batches, so a caller that reads only those times may compute
    /// them instead of running the loop.
    /// `op` is bound as for [`Self::repeat`]. Under checks or tracing both
    /// iterations run and the answer is `None`.
    pub fn period(
        &mut self,
        op: impl Fn(&mut GpuRuntime) -> Result<(), GpuError>,
    ) -> Result<Option<SimDuration>, GpuError> {
        let fast = self.fast_forwards();
        steady::period(self, fast, Self::steady_parts, op)
    }

    /// The host clock, every stream then every wire, and the current
    /// device, as [`steady::repeat`] sees them.
    fn steady_parts(&mut self) -> Parts<'_> {
        Parts {
            clocks: std::slice::from_mut(&mut self.clock),
            engines: [&mut self.streams, &mut self.wires],
            mode: self.current.index(),
            boundary: &mut self.boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use doe_topo::NumaId;

    #[test]
    fn arm_scales_each_device_by_its_own_driver_costs() {
        // Runs of equal models broken by a model that differs from its
        // neighbour in one driver cost only, each cost once.
        let base = GpuModel::new("G", doe_memmodel::MemDomainModel::new("hbm", 1000.0, 30.0));
        let bump = |f: fn(&mut GpuModel)| {
            let mut m = base.clone();
            f(&mut m);
            m
        };
        let models: Arc<[GpuModel]> = [
            base.clone(),
            base.clone(),
            bump(|m| m.empty_kernel_time += SimDuration::from_ns(2.0)),
            bump(|m| m.stream_sync_overhead += SimDuration::from_ns(3.0)),
            bump(|m| m.sync_overhead += SimDuration::from_ns(7.0)),
            bump(|m| m.launch_overhead += SimDuration::from_ns(5.0)),
            base.clone(),
            base.clone(),
        ]
        .into();
        let mut b = doe_topo::NodeBuilder::new("mixed")
            .socket("S")
            .numa(doe_topo::SocketId(0))
            .cores(NumaId(0), 4, 1)
            .devices("G", NumaId(0), models.len() as u32);
        for d in 0..models.len() as u32 {
            b = b.link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(d)),
                doe_topo::LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            );
        }
        let topo = Arc::new(b.build().expect("valid"));
        let mut rt = GpuRuntime::new(Arc::clone(&topo), Arc::clone(&models), 1);
        for seed in 0..32 {
            let fresh = GpuRuntime::new(Arc::clone(&topo), Arc::clone(&models), seed);
            assert!(rt.rearm(seed));
            for r in [&rt, &fresh] {
                let f = r.run_factor;
                let want: Vec<DriverCosts> = models
                    .iter()
                    .map(|m| DriverCosts {
                        launch: m.launch_overhead * f,
                        empty_kernel: m.empty_kernel_time * f,
                        stream_sync: m.stream_sync_overhead * f,
                        sync: m.sync_overhead * f,
                    })
                    .collect();
                assert_eq!(r.driver, want, "seed {seed}");
            }
        }
    }

    #[test]
    fn launch_costs_only_submission() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let t0 = rt.now();
        rt.launch_empty(&s).unwrap();
        let dt = rt.now().since(t0);
        let expect = rt.model(DeviceId(0)).unwrap().launch_overhead;
        // Within jitter of the configured overhead, far below kernel time.
        assert!(dt.as_us() > expect.as_us() * 0.8 && dt.as_us() < expect.as_us() * 1.2);
    }

    #[test]
    fn empty_queue_sync_costs_sync_overhead() {
        let mut rt = testkit::single_gpu_runtime();
        let t0 = rt.now();
        rt.device_synchronize().unwrap();
        let dt = rt.now().since(t0);
        let expect = rt.model(DeviceId(0)).unwrap().sync_overhead;
        assert!((dt.as_us() - expect.as_us()).abs() / expect.as_us() < 0.2);
    }

    #[test]
    fn sync_after_launch_waits_for_kernel() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let t0 = rt.now();
        rt.launch_empty(&s).unwrap();
        rt.stream_synchronize(&s).unwrap();
        let m = rt.model(DeviceId(0)).unwrap();
        let floor = m.launch_overhead + m.empty_kernel_time;
        assert!(rt.now().since(t0) >= floor * 0.8);
    }

    #[test]
    fn back_to_back_launches_pipeline() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        // Launch 10 kernels: host time = 10 launches, then one sync drains
        // the serialized kernel bodies.
        let t0 = rt.now();
        for _ in 0..10 {
            rt.launch_empty(&s).unwrap();
        }
        let after_launches = rt.now().since(t0);
        rt.device_synchronize().unwrap();
        let total = rt.now().since(t0);
        let m = rt.model(DeviceId(0)).unwrap();
        assert!(after_launches < m.launch_overhead * 13);
        // Bodies execute in order; total covers at least 10 bodies if the
        // body dominates, or at least the launches otherwise.
        assert!(total >= m.empty_kernel_time * 9);
    }

    #[test]
    fn h2d_copy_latency_and_bandwidth() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 30);
        let dev = Buffer::device(DeviceId(0), 1 << 30);

        // Small copy: dominated by setup + link latency.
        let t0 = rt.now();
        rt.memcpy_async(&dev, &host, 128, &s).unwrap();
        rt.stream_synchronize(&s).unwrap();
        let small = rt.now().since(t0);

        // Large copy: dominated by serialization at the link bandwidth.
        let t1 = rt.now();
        rt.memcpy_async(&dev, &host, 1 << 30, &s).unwrap();
        rt.stream_synchronize(&s).unwrap();
        let large = rt.now().since(t1);

        assert!(large > small * 100);
        let bw = large.bandwidth_gb_s(1 << 30);
        // Should be close to (below) the configured 25 GB/s PCIe link.
        assert!(bw > 15.0 && bw < 25.5, "bw={bw}");
    }

    #[test]
    fn unpinned_copies_are_slower() {
        let rt = testkit::single_gpu_runtime();
        let bytes = 1 << 26;
        let pinned = rt
            .copy_duration(
                MemLoc::Device(DeviceId(0)),
                MemLoc::Host {
                    numa: NumaId(0),
                    pinned: true,
                },
                bytes,
                DeviceId(0),
            )
            .unwrap();
        let pageable = rt
            .copy_duration(
                MemLoc::Device(DeviceId(0)),
                MemLoc::Host {
                    numa: NumaId(0),
                    pinned: false,
                },
                bytes,
                DeviceId(0),
            )
            .unwrap();
        assert!(pageable > pinned);
    }

    #[test]
    fn d2d_copy_uses_peer_route() {
        let mut rt = testkit::dual_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let a = Buffer::device(DeviceId(0), 1 << 20);
        let b = Buffer::device(DeviceId(1), 1 << 20);
        let t0 = rt.now();
        rt.memcpy_async(&b, &a, 128, &s).unwrap();
        rt.stream_synchronize(&s).unwrap();
        let dt = rt.now().since(t0);
        let m = rt.model(DeviceId(0)).unwrap();
        assert!(dt >= m.copy_setup_peer * 0.8);
    }

    #[test]
    fn intra_device_copy_charges_read_and_write() {
        let rt = testkit::single_gpu_runtime();
        let d = rt
            .copy_duration(
                MemLoc::Device(DeviceId(0)),
                MemLoc::Device(DeviceId(0)),
                1 << 30,
                DeviceId(0),
            )
            .unwrap();
        // 2 GiB of HBM traffic at ~900 GB/s sustained: ~2.4 ms.
        assert!(d.as_us() > 1_000.0, "d={d}");
    }

    #[test]
    fn host_to_host_rejected() {
        let rt = testkit::single_gpu_runtime();
        let err = rt
            .copy_duration(
                MemLoc::Host {
                    numa: NumaId(0),
                    pinned: true,
                },
                MemLoc::Host {
                    numa: NumaId(0),
                    pinned: true,
                },
                64,
                DeviceId(0),
            )
            .unwrap_err();
        assert_eq!(err, GpuError::HostToHost);
    }

    #[test]
    fn oversized_copy_rejected() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 64);
        let dev = Buffer::device(DeviceId(0), 1 << 20);
        let err = rt.memcpy_async(&dev, &host, 128, &s).unwrap_err();
        assert!(matches!(err, GpuError::CopyOutOfBounds { .. }));
    }

    #[test]
    fn invalid_device_rejected() {
        let mut rt = testkit::single_gpu_runtime();
        assert!(rt.set_device(DeviceId(9)).is_err());
        assert!(rt.default_stream(DeviceId(9)).is_err());
        assert!(rt.create_stream(DeviceId(9)).is_err());
    }

    #[test]
    fn opposite_directions_run_duplex() {
        // H2D on one stream and D2H on another: full-duplex links carry
        // both, so the pair completes in about one transfer time.
        let mut rt = testkit::single_gpu_runtime();
        let dev = DeviceId(0);
        let s1 = rt.create_stream(dev).unwrap();
        let s2 = rt.create_stream(dev).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 30);
        let devb = Buffer::device(dev, 1 << 30);
        let bytes = 1u64 << 28; // ~10.7 ms at 25 GB/s

        let t0 = rt.now();
        rt.memcpy_async(&devb, &host, bytes, &s1).unwrap();
        rt.memcpy_async(&host, &devb, bytes, &s2).unwrap();
        rt.stream_synchronize(&s1).unwrap();
        rt.stream_synchronize(&s2).unwrap();
        let both = rt.now().since(t0);

        let mut rt2 = testkit::single_gpu_runtime();
        let s = rt2.default_stream(dev).unwrap();
        let t0 = rt2.now();
        rt2.memcpy_async(&devb, &host, bytes, &s).unwrap();
        rt2.stream_synchronize(&s).unwrap();
        let one = rt2.now().since(t0);

        assert!(
            both.as_us() < one.as_us() * 1.2,
            "duplex pair ({both}) should cost about one transfer ({one})"
        );
    }

    #[test]
    fn same_direction_copies_contend_for_the_wire() {
        // Two H2D copies on separate streams share one link direction:
        // they serialize, taking about twice one transfer.
        let mut rt = testkit::single_gpu_runtime();
        let dev = DeviceId(0);
        let s1 = rt.create_stream(dev).unwrap();
        let s2 = rt.create_stream(dev).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 30);
        let devb = Buffer::device(dev, 1 << 30);
        let bytes = 1u64 << 28;

        let t0 = rt.now();
        rt.memcpy_async(&devb, &host, bytes, &s1).unwrap();
        rt.memcpy_async(&devb, &host, bytes, &s2).unwrap();
        rt.stream_synchronize(&s1).unwrap();
        rt.stream_synchronize(&s2).unwrap();
        let both = rt.now().since(t0);

        let mut rt2 = testkit::single_gpu_runtime();
        let s = rt2.default_stream(dev).unwrap();
        let t0 = rt2.now();
        rt2.memcpy_async(&devb, &host, bytes, &s).unwrap();
        rt2.stream_synchronize(&s).unwrap();
        let one = rt2.now().since(t0);

        let ratio = both.as_us() / one.as_us();
        assert!(
            (1.8..2.3).contains(&ratio),
            "same-direction pair should serialize: ratio={ratio}"
        );
    }

    #[test]
    fn events_measure_queue_spans() {
        let mut rt = testkit::single_gpu_runtime();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let e0 = rt.event_record(&s).unwrap();
        rt.launch_empty(&s).unwrap();
        let e1 = rt.event_record(&s).unwrap();
        rt.event_synchronize(&e1);
        let span = e1.elapsed_since(&e0);
        let m = rt.model(DeviceId(0)).unwrap();
        assert!(span >= m.empty_kernel_time * 0.8);
    }

    #[test]
    fn stream_wait_event_chains_across_streams() {
        let mut rt = testkit::single_gpu_runtime();
        let dev = DeviceId(0);
        let s1 = rt.create_stream(dev).unwrap();
        let s2 = rt.create_stream(dev).unwrap();
        // Kernel on s1, record event, make s2 wait on it, launch on s2.
        rt.launch_empty(&s1).unwrap();
        let e = rt.event_record(&s1).unwrap();
        rt.stream_wait_event(&s2, &e).unwrap();
        rt.launch_empty(&s2).unwrap();
        rt.stream_synchronize(&s2).unwrap();
        let m = rt.model(dev).unwrap();
        // s2's kernel ran after s1's: total spans at least two kernel bodies.
        let floor = m.empty_kernel_time * 2;
        assert!(
            rt.now().since(doe_simtime::SimTime::ZERO) >= floor * 0.8,
            "dependency chain not honoured"
        );
        // Without the dependency the kernels overlap.
        let mut rt2 = testkit::single_gpu_runtime();
        let a = rt2.create_stream(dev).unwrap();
        let b = rt2.create_stream(dev).unwrap();
        rt2.launch_empty(&a).unwrap();
        rt2.launch_empty(&b).unwrap();
        rt2.stream_synchronize(&a).unwrap();
        rt2.stream_synchronize(&b).unwrap();
        assert!(rt2.now() < rt.now(), "independent streams should overlap");
    }

    #[test]
    fn tracing_records_kernels_copies_and_syncs() {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_tracing();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 20);
        let dev = Buffer::device(DeviceId(0), 1 << 20);
        rt.launch_empty(&s).unwrap();
        rt.memcpy_async(&dev, &host, 4096, &s).unwrap();
        rt.stream_synchronize(&s).unwrap();
        let trace = rt.take_trace().expect("tracing was enabled");
        assert!(trace.len() >= 4, "spans: {}", trace.len());
        let json = trace.to_chrome_json();
        assert!(json.contains("empty kernel"));
        assert!(json.contains("memcpy 4096B"));
        assert!(json.contains("stream sync"));
        // Wire track named after the directed link.
        assert!(json.contains("numa0 -> gpu0"));
        // Tracing off by default and after take.
        assert!(rt.take_trace().is_none());
    }

    #[test]
    fn racy_fixtures_are_flagged_and_synced_fixture_is_clean() {
        let ww = testkit::racy_unsynchronized_writes().unwrap();
        assert!(
            ww.iter().any(|f| f.contains("race")),
            "write-write race not flagged: {ww:?}"
        );
        let rw = testkit::racy_read_write_overlap().unwrap();
        assert!(
            rw.iter().any(|f| f.contains("race")),
            "read-write race not flagged: {rw:?}"
        );
        let kc = testkit::racy_kernel_vs_copy().unwrap();
        assert!(
            kc.iter().any(|f| f.contains("race")),
            "kernel-vs-copy race not flagged: {kc:?}"
        );
        let clean = testkit::synced_cross_stream_pipeline().unwrap();
        assert_eq!(clean, Vec::<String>::new());
    }

    #[test]
    fn host_sync_orders_sequential_stream_reuse() {
        // Write on s1, host-sync, then unrelated stream reads: the
        // stream_synchronize edge orders the accesses; no race.
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_checks();
        let dev = DeviceId(0);
        let s1 = rt.create_stream(dev).unwrap();
        let s2 = rt.create_stream(dev).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 20);
        let shared = Buffer::device(dev, 1 << 20);
        let sink = Buffer::device(dev, 1 << 20);
        rt.memcpy_async(&shared, &host, 4096, &s1).unwrap();
        rt.stream_synchronize(&s1).unwrap();
        rt.memcpy_async(&sink, &shared, 4096, &s2).unwrap();
        rt.stream_synchronize(&s2).unwrap();
        assert_eq!(rt.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn same_stream_reuse_is_ordered_and_clean() {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_checks();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 20);
        let dev = Buffer::device(DeviceId(0), 1 << 20);
        for _ in 0..5 {
            rt.memcpy_async(&dev, &host, 4096, &s).unwrap();
            rt.memcpy_async(&host, &dev, 4096, &s).unwrap();
        }
        rt.stream_synchronize(&s).unwrap();
        assert_eq!(rt.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn event_synchronize_orders_host_against_stream() {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_checks();
        let dev = DeviceId(0);
        let s1 = rt.create_stream(dev).unwrap();
        let s2 = rt.create_stream(dev).unwrap();
        let host = Buffer::pinned_host(NumaId(0), 1 << 20);
        let shared = Buffer::device(dev, 1 << 20);
        let sink = Buffer::device(dev, 1 << 20);
        rt.memcpy_async(&shared, &host, 4096, &s1).unwrap();
        let e = rt.event_record(&s1).unwrap();
        // Host waits on the event; the next submission carries the edge.
        rt.event_synchronize(&e);
        rt.memcpy_async(&sink, &shared, 4096, &s2).unwrap();
        rt.stream_synchronize(&s2).unwrap();
        assert_eq!(rt.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn event_release_holds_snapshot_arena_flat() {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_checks();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        // A record/release loop (the pipelined-benchmark pattern) must
        // recycle one slot, not grow one snapshot per iteration.
        let mut arena_after_warmup = 0;
        for i in 0..1_000 {
            rt.launch_empty(&s).unwrap();
            let e = rt.event_record(&s).unwrap();
            rt.event_synchronize(&e);
            rt.event_release(e);
            if i == 0 {
                arena_after_warmup = rt.event_arena_len();
            }
        }
        assert_eq!(rt.event_arena_len(), arena_after_warmup);
        assert_eq!(rt.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn event_release_twice_is_a_noop_and_live_events_keep_slots() {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_checks();
        let s = rt.default_stream(DeviceId(0)).unwrap();
        let e1 = rt.event_record(&s).unwrap();
        let e2 = rt.event_record(&s).unwrap();
        rt.event_release(e1);
        rt.event_release(e1); // double release: must not free e2's slot
        let e3 = rt.event_record(&s).unwrap();
        let e4 = rt.event_record(&s).unwrap();
        // e3 recycled e1's slot; e4 needed a fresh one (e2 is still live).
        assert_eq!(rt.event_arena_len(), 3);
        // The live event still carries its happens-before edge.
        let s2 = rt.create_stream(DeviceId(0)).unwrap();
        rt.stream_wait_event(&s2, &e2).unwrap();
        rt.stream_wait_event(&s2, &e3).unwrap();
        rt.stream_wait_event(&s2, &e4).unwrap();
        rt.device_synchronize().unwrap();
        assert_eq!(rt.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn checked_run_is_bit_identical_to_unchecked() {
        let run = |check: bool| {
            let mut rt = testkit::single_gpu_runtime_with_seed(11);
            if check {
                rt.enable_checks();
            }
            let s = rt.default_stream(DeviceId(0)).unwrap();
            let host = Buffer::pinned_host(NumaId(0), 1 << 24);
            let dev = Buffer::device(DeviceId(0), 1 << 24);
            for _ in 0..20 {
                rt.launch_empty(&s).unwrap();
                rt.memcpy_async(&dev, &host, 1 << 20, &s).unwrap();
            }
            rt.device_synchronize().unwrap();
            assert!(rt.check_findings().is_empty() || !check);
            rt.now()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn runs_are_reproducible_for_same_seed() {
        let run = |seed: u64| {
            let mut rt = testkit::single_gpu_runtime_with_seed(seed);
            let s = rt.default_stream(DeviceId(0)).unwrap();
            for _ in 0..50 {
                rt.launch_empty(&s).unwrap();
            }
            rt.device_synchronize().unwrap();
            rt.now()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
