//! The unified typed query API: one parameterized query space over the
//! whole campaign surface, with canonical serialization and
//! content-addressed cache keys.
//!
//! Everything the suite computes is a pure function of (machine spec,
//! suite config, seed, code version) — PRs 1–7 made campaigns
//! byte-identical across job counts and queue cores, so every result is
//! infinitely cacheable. This module makes that property *addressable*:
//!
//! * [`Query`] — a typed enum over the query space ("Table 4",
//!   "Table 5 for Frontier", "latency sweep, Eagle vs Theta", "full
//!   suite with overridden machine parameters"), replacing N bespoke
//!   subcommand flag sets (the Task Bench argument, arXiv:1908.05790).
//! * Canonical serialization — [`Query::to_json`] renders through
//!   [`doe_report::json`]'s canonical writer, so equal queries always
//!   serialize to the same bytes and distinct queries never collide
//!   (proptested in `tests/integration_query.rs`). Seeds render as hex
//!   strings because `u64` does not fit in a JSON number.
//! * Content hashes — every plan cell (one table row on one machine) is
//!   keyed by FNV-1a over (code version, table id, machine name,
//!   machine-spec digest, campaign digest). A changed machine parameter
//!   changes exactly that machine's spec digest, so it invalidates only
//!   the cells that depend on it — the daemon's precise-invalidation
//!   contract. Reps, seed, and estimator config all live in the
//!   campaign digest, keeping cached numbers comparable the way "MPI
//!   Benchmarking Revisited" (arXiv:1505.07734) demands of any
//!   benchmark result exchange.
//!
//! [`plan`] expands a query into row-granular cells; [`QueryPlan::compute`]
//! executes one cell; [`QueryPlan::assemble`] folds computed (or cached)
//! cells into a [`QueryResult`] whose rendering is a pure function of the
//! cell values — the byte-identical-body property the daemon tests pin.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

use doe_benchlib::Summary;
use doe_machines::{catalog, Machine};
use doe_osu::{on_node_pair, on_socket_pair, osu_latency, OsuConfig};
use doe_report::json::{self, Json};
use doe_report::{CellValue, Format, TableResult, Unit};

use crate::campaign::Campaign;
use crate::{table4, table5, table6, table7};

/// Version tag folded into every cache key; bump the `+q` suffix
/// whenever result semantics change without a crate version bump.
pub const CODE_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+q1");

/// 64-bit FNV-1a over a byte stream — the suite's content hash.
// doebench::effects(pure)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// [`fnv1a64`] of formatted text, streamed: the text is hashed as it is
/// rendered and never materialized.
// doebench::effects(pure)
fn fnv1a_fmt(args: fmt::Arguments<'_>) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.write_fmt(args).expect("hashing sink never fails");
    h.0
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a state as a `fmt::Write` sink. FNV-1a consumes bytes in order,
/// so hashing a rendering piece by piece equals hashing it whole.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// A query-layer failure, mapped to HTTP 400 by the daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryError(pub String);

impl QueryError {
    fn new(msg: impl Into<String>) -> Self {
        QueryError(msg.into())
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for QueryError {}

// ---------------------------------------------------------------------
// Query types
// ---------------------------------------------------------------------

/// Campaign protocol selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Reduced repetitions/sweeps (tests, smoke runs).
    Quick,
    /// The paper's 100-repetition protocol.
    Paper,
}

impl Profile {
    /// Canonical name.
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Paper => "paper",
        }
    }

    fn from_str(s: &str) -> Result<Self, QueryError> {
        match s {
            "quick" => Ok(Profile::Quick),
            "paper" => Ok(Profile::Paper),
            other => Err(QueryError::new(format!("unknown profile '{other}'"))),
        }
    }
}

/// Which paper table a [`Query::Table`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableId {
    /// CPU machines: memory bandwidth + MPI latency.
    Table4,
    /// GPU machines: device bandwidth + MPI latencies.
    Table5,
    /// GPU machines: Comm|Scope kernel/copy costs.
    Table6,
    /// Min–max summary per accelerator generation (derived from 5+6).
    Table7,
}

impl TableId {
    /// Canonical name (`"table4"` …).
    pub fn as_str(self) -> &'static str {
        match self {
            TableId::Table4 => "table4",
            TableId::Table5 => "table5",
            TableId::Table6 => "table6",
            TableId::Table7 => "table7",
        }
    }

    fn from_str(s: &str) -> Result<Self, QueryError> {
        match s {
            "table4" => Ok(TableId::Table4),
            "table5" => Ok(TableId::Table5),
            "table6" => Ok(TableId::Table6),
            "table7" => Ok(TableId::Table7),
            other => Err(QueryError::new(format!("unknown table '{other}'"))),
        }
    }
}

/// Machine selection for table queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineSel {
    /// Every machine the table covers, in canonical registry order.
    All,
    /// A subset, in the order given.
    Named(Vec<String>),
}

/// A machine parameter a query may override — the "custom machine"
/// surface. Each field maps onto one knob of the registry spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverrideField {
    /// `host_mem.peak_bw_gb_s`.
    HostPeakBwGbS,
    /// `host_mem.sustained_efficiency`.
    HostSustainedEff,
    /// `host_mem.per_core_bw_gb_s`.
    HostPerCoreBwGbS,
    /// `host_stream_jitter.rel_sigma`.
    HostStreamJitterRel,
    /// `mpi.shm_latency`, in µs.
    MpiShmLatencyUs,
    /// `mpi.send_overhead`, in µs.
    MpiSendOverheadUs,
    /// `mpi.recv_overhead`, in µs.
    MpiRecvOverheadUs,
    /// `gpu_models[*].launch_overhead`, in µs.
    GpuLaunchUs,
    /// `gpu_models[*].sync_overhead`, in µs.
    GpuSyncUs,
    /// `gpu_models[*].hbm.peak_bw_gb_s`.
    GpuPeakBwGbS,
}

impl OverrideField {
    /// Every field, for parsers and usage text.
    pub const ALL: [OverrideField; 10] = [
        OverrideField::HostPeakBwGbS,
        OverrideField::HostSustainedEff,
        OverrideField::HostPerCoreBwGbS,
        OverrideField::HostStreamJitterRel,
        OverrideField::MpiShmLatencyUs,
        OverrideField::MpiSendOverheadUs,
        OverrideField::MpiRecvOverheadUs,
        OverrideField::GpuLaunchUs,
        OverrideField::GpuSyncUs,
        OverrideField::GpuPeakBwGbS,
    ];

    /// Canonical name.
    pub fn as_str(self) -> &'static str {
        match self {
            OverrideField::HostPeakBwGbS => "host_peak_bw_gb_s",
            OverrideField::HostSustainedEff => "host_sustained_efficiency",
            OverrideField::HostPerCoreBwGbS => "host_per_core_bw_gb_s",
            OverrideField::HostStreamJitterRel => "host_stream_jitter_rel",
            OverrideField::MpiShmLatencyUs => "mpi_shm_latency_us",
            OverrideField::MpiSendOverheadUs => "mpi_send_overhead_us",
            OverrideField::MpiRecvOverheadUs => "mpi_recv_overhead_us",
            OverrideField::GpuLaunchUs => "gpu_launch_us",
            OverrideField::GpuSyncUs => "gpu_sync_us",
            OverrideField::GpuPeakBwGbS => "gpu_peak_bw_gb_s",
        }
    }

    /// The values an override of this field accepts, `[lo, hi]` in the
    /// unit given.
    ///
    /// Any mix of in-range overrides runs every table at both profiles
    /// without overflowing the picosecond clock. The slowest host memory
    /// they allow is 0.1 GB/s at 0.1 efficiency, slowed 5× by a 4σ run
    /// factor at 0.2 jitter: 2e-3 GB/s, and 1e-3 GB/s still runs the
    /// paper profile where 1e-4 GB/s overflows it. A duration of 1e6 µs
    /// runs; 1e13 µs overflows at any profile.
    pub fn range(self) -> (f64, f64, &'static str) {
        match self {
            OverrideField::HostPeakBwGbS
            | OverrideField::HostPerCoreBwGbS
            | OverrideField::GpuPeakBwGbS => (0.1, 1e6, " GB/s"),
            OverrideField::HostSustainedEff => (0.1, 1.0, ""),
            OverrideField::HostStreamJitterRel => (0.0, 0.2, ""),
            OverrideField::MpiShmLatencyUs
            | OverrideField::MpiSendOverheadUs
            | OverrideField::MpiRecvOverheadUs
            | OverrideField::GpuLaunchUs
            | OverrideField::GpuSyncUs => (0.0, 1e6, " us"),
        }
    }

    /// `value` if it lies in [`Self::range`], else an error that names
    /// the field and its range. NaN and the infinities lie in no range.
    fn check(self, value: f64) -> Result<f64, QueryError> {
        let (lo, hi, unit) = self.range();
        if (lo..=hi).contains(&value) {
            // `-0.0 + 0.0` is `+0.0`: one zero, so one cache key.
            return Ok(value + 0.0);
        }
        Err(QueryError::new(format!(
            "override {} = {value} is out of range [{lo}, {hi}]{unit}",
            self.as_str()
        )))
    }

    fn from_str(s: &str) -> Result<Self, QueryError> {
        OverrideField::ALL
            .into_iter()
            .find(|f| f.as_str() == s)
            .ok_or_else(|| QueryError::new(format!("unknown override field '{s}'")))
    }

    /// Apply the override to a cloned machine spec.
    fn apply(self, m: &mut Machine, value: f64) -> Result<(), QueryError> {
        use doe_simtime::SimDuration;
        let us = SimDuration::from_us;
        match self {
            OverrideField::HostPeakBwGbS => m.host_mem.peak_bw_gb_s = value,
            OverrideField::HostSustainedEff => m.host_mem.sustained_efficiency = value,
            OverrideField::HostPerCoreBwGbS => m.host_mem.per_core_bw_gb_s = value,
            OverrideField::HostStreamJitterRel => m.host_stream_jitter.rel_sigma = value,
            OverrideField::MpiShmLatencyUs => m.mpi.shm_latency = us(value),
            OverrideField::MpiSendOverheadUs => m.mpi.send_overhead = us(value),
            OverrideField::MpiRecvOverheadUs => m.mpi.recv_overhead = us(value),
            OverrideField::GpuLaunchUs | OverrideField::GpuSyncUs | OverrideField::GpuPeakBwGbS => {
                if m.gpu_models.is_empty() {
                    return Err(QueryError::new(format!(
                        "{} has no accelerator; cannot override {}",
                        m.name,
                        self.as_str()
                    )));
                }
                for g in &mut m.gpu_models {
                    match self {
                        OverrideField::GpuLaunchUs => g.launch_overhead = us(value),
                        OverrideField::GpuSyncUs => g.sync_overhead = us(value),
                        OverrideField::GpuPeakBwGbS => g.hbm.peak_bw_gb_s = value,
                        _ => unreachable!("gpu arm"),
                    }
                }
            }
        }
        Ok(())
    }
}

/// One machine-parameter override.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecOverride {
    /// Machine the override applies to. The parsers store the catalog
    /// spelling and reject names the catalog lacks; planning matches it
    /// case-insensitively.
    pub machine: String,
    /// Which knob.
    pub field: OverrideField,
    /// New value (units per [`OverrideField`] docs), within the field's
    /// range (DESIGN.md §14.1).
    pub value: f64,
}

impl SpecOverride {
    /// The override both parsers build: the machine in its catalog
    /// spelling and the value checked against the field's range.
    fn parsed(machine: &str, field: OverrideField, value: f64) -> Result<Self, QueryError> {
        Ok(SpecOverride {
            machine: catalog_machine(machine)?.name.to_string(),
            field,
            value: field.check(value)?,
        })
    }
}

/// Parameters shared by every query variant.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryParams {
    /// Campaign protocol.
    pub profile: Profile,
    /// Master-seed override; `None` uses the campaign default.
    pub seed: Option<u64>,
    /// Machine-parameter overrides, applied in order.
    pub overrides: Vec<SpecOverride>,
}

impl QueryParams {
    /// Quick profile, default seed, no overrides.
    pub fn quick() -> Self {
        QueryParams {
            profile: Profile::Quick,
            seed: None,
            overrides: Vec::new(),
        }
    }

    /// Paper profile, default seed, no overrides.
    pub fn paper() -> Self {
        QueryParams {
            profile: Profile::Paper,
            seed: None,
            overrides: Vec::new(),
        }
    }

    /// The campaign this query runs under.
    pub fn campaign(&self) -> Campaign {
        let mut c = match self.profile {
            Profile::Quick => Campaign::quick(),
            Profile::Paper => Campaign::paper(),
        };
        if let Some(seed) = self.seed {
            c.seed = seed;
        }
        c
    }
}

/// The typed query space — the daemon's entire request surface, and what
/// CLI subcommands now construct instead of hand-rolling flag handling.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// One paper table, optionally restricted to named machines.
    Table {
        /// Which table.
        id: TableId,
        /// Which machines.
        machines: MachineSel,
        /// Protocol, seed, overrides.
        params: QueryParams,
    },
    /// OSU message-size latency sweep comparing machines column-wise.
    Sweep {
        /// Machines to compare (at least one).
        machines: Vec<String>,
        /// Protocol, seed, overrides.
        params: QueryParams,
    },
    /// The full suite: Tables 4–7 in one response.
    Suite {
        /// Protocol, seed, overrides.
        params: QueryParams,
    },
}

impl Query {
    /// The shared parameter block.
    pub fn params(&self) -> &QueryParams {
        match self {
            Query::Table { params, .. } | Query::Sweep { params, .. } | Query::Suite { params } => {
                params
            }
        }
    }

    // -- canonical serialization --------------------------------------

    /// Canonical JSON value. Every field renders, including defaults, so
    /// serialization is injective over distinct queries.
    pub fn to_json(&self) -> Json {
        let params = self.params();
        let seed = match params.seed {
            None => Json::s("default"),
            Some(s) => Json::s(format!("{s:#x}")),
        };
        let overrides = Json::Arr(
            params
                .overrides
                .iter()
                .map(|o| {
                    Json::obj([
                        ("machine", Json::s(o.machine.clone())),
                        ("field", Json::s(o.field.as_str())),
                        ("value", Json::Num(o.value)),
                    ])
                })
                .collect(),
        );
        let machines_json = |sel: &MachineSel| match sel {
            MachineSel::All => Json::s("all"),
            MachineSel::Named(names) => Json::Arr(names.iter().cloned().map(Json::Str).collect()),
        };
        let (kind, mut obj) = match self {
            Query::Table { id, machines, .. } => (
                "table",
                vec![
                    ("table", Json::s(id.as_str())),
                    ("machines", machines_json(machines)),
                ],
            ),
            Query::Sweep { machines, .. } => (
                "sweep",
                vec![(
                    "machines",
                    Json::Arr(machines.iter().cloned().map(Json::Str).collect()),
                )],
            ),
            Query::Suite { .. } => ("suite", vec![]),
        };
        obj.push(("kind", Json::s(kind)));
        obj.push(("profile", Json::s(params.profile.as_str())));
        obj.push(("seed", seed));
        obj.push(("overrides", overrides));
        Json::obj(obj)
    }

    /// The canonical serialized form (cache-key input, response echo).
    pub fn canonical(&self) -> String {
        self.to_json().canonical()
    }

    /// Parse a query from its JSON form. Accepts any field order and
    /// whitespace; re-serializing the parsed query is byte-stable.
    pub fn from_json(v: &Json) -> Result<Query, QueryError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| QueryError::new("query needs a string 'kind'"))?;
        let params = parse_params(v)?;
        match kind {
            "table" => {
                let id = TableId::from_str(
                    v.get("table")
                        .and_then(Json::as_str)
                        .ok_or_else(|| QueryError::new("table query needs 'table'"))?,
                )?;
                let machines = match v.get("machines") {
                    None => MachineSel::All,
                    Some(Json::Str(s)) if s == "all" => MachineSel::All,
                    Some(Json::Arr(items)) => MachineSel::Named(parse_names(items)?),
                    Some(_) => {
                        return Err(QueryError::new(
                            "'machines' must be \"all\" or an array of names",
                        ))
                    }
                };
                Ok(Query::Table {
                    id,
                    machines,
                    params,
                })
            }
            "sweep" => {
                let machines = match v.get("machines") {
                    Some(Json::Arr(items)) => parse_names(items)?,
                    _ => return Err(QueryError::new("sweep query needs a 'machines' array")),
                };
                if machines.is_empty() {
                    return Err(QueryError::new("sweep needs at least one machine"));
                }
                Ok(Query::Sweep { machines, params })
            }
            "suite" => Ok(Query::Suite { params }),
            other => Err(QueryError::new(format!("unknown query kind '{other}'"))),
        }
    }

    /// Parse a serialized query (JSON text).
    pub fn parse(text: &str) -> Result<Query, QueryError> {
        let v = json::parse(text).map_err(|e| QueryError::new(e.to_string()))?;
        Query::from_json(&v)
    }

    /// Parse the CLI/URL shorthand:
    ///
    /// ```text
    /// table4 | table5 | table6 | table7 | suite | tables | sweep
    ///   [@quick|@paper] [<machine>...] [machines=A,B] [seed=0x...|N]
    ///   [set <machine>.<field>=<value>]...
    /// ```
    ///
    /// Examples: `table4`, `table5@paper Frontier`,
    /// `sweep Eagle Theta`, `suite set Frontier.gpu_launch_us=2.5`.
    pub fn parse_shorthand(text: &str) -> Result<Query, QueryError> {
        let mut tokens = text.split_whitespace().peekable();
        let head = tokens
            .next()
            .ok_or_else(|| QueryError::new("empty query"))?;
        let (cmd, profile_tag) = match head.split_once('@') {
            Some((c, p)) => (c, Some(p)),
            None => (head, None),
        };
        let mut params = QueryParams::quick();
        if let Some(p) = profile_tag {
            params.profile = Profile::from_str(p)?;
        }
        let mut names: Vec<String> = Vec::new();
        while let Some(tok) = tokens.next() {
            if tok == "set" {
                let spec = tokens
                    .next()
                    .ok_or_else(|| QueryError::new("'set' needs <machine>.<field>=<value>"))?;
                params.overrides.push(parse_override(spec)?);
            } else if let Some(v) = tok.strip_prefix("profile=") {
                params.profile = Profile::from_str(v)?;
            } else if let Some(v) = tok.strip_prefix("seed=") {
                params.seed = Some(parse_seed(v)?);
            } else if let Some(v) = tok.strip_prefix("machines=") {
                names.extend(v.split(',').filter(|s| !s.is_empty()).map(str::to_string));
            } else if tok.starts_with('-') || tok.contains('=') {
                return Err(QueryError::new(format!("unknown query token '{tok}'")));
            } else {
                names.push(tok.to_string());
            }
        }
        match cmd {
            "table4" | "table5" | "table6" | "table7" => Ok(Query::Table {
                id: TableId::from_str(cmd)?,
                machines: if names.is_empty() {
                    MachineSel::All
                } else {
                    MachineSel::Named(names)
                },
                params,
            }),
            "sweep" => {
                if names.is_empty() {
                    return Err(QueryError::new("sweep needs at least one machine"));
                }
                Ok(Query::Sweep {
                    machines: names,
                    params,
                })
            }
            "suite" | "tables" => {
                if names.is_empty() {
                    Ok(Query::Suite { params })
                } else {
                    Err(QueryError::new("suite takes no machine list"))
                }
            }
            other => Err(QueryError::new(format!(
                "unknown query '{other}' (expected table4..table7, suite, or sweep)"
            ))),
        }
    }
}

fn parse_names(items: &[Json]) -> Result<Vec<String>, QueryError> {
    items
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| QueryError::new("machine names must be strings"))
        })
        .collect()
}

fn parse_seed(v: &str) -> Result<u64, QueryError> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| QueryError::new(format!("bad seed '{v}'")))
}

/// `<machine>.<field>=<value>` for the shorthand's `set` token.
fn parse_override(spec: &str) -> Result<SpecOverride, QueryError> {
    let (target, value) = spec
        .split_once('=')
        .ok_or_else(|| QueryError::new(format!("override '{spec}' needs '='")))?;
    let (machine, field) = target
        .split_once('.')
        .ok_or_else(|| QueryError::new(format!("override '{spec}' needs <machine>.<field>")))?;
    let value: f64 = value
        .parse()
        .map_err(|_| QueryError::new(format!("bad override value in '{spec}'")))?;
    SpecOverride::parsed(machine, OverrideField::from_str(field)?, value)
}

fn parse_params(v: &Json) -> Result<QueryParams, QueryError> {
    let profile = match v.get("profile") {
        None => Profile::Quick,
        Some(p) => Profile::from_str(
            p.as_str()
                .ok_or_else(|| QueryError::new("'profile' must be a string"))?,
        )?,
    };
    let seed = match v.get("seed") {
        None => None,
        Some(Json::Str(s)) if s == "default" => None,
        Some(Json::Str(s)) => Some(parse_seed(s)?),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
            Some(*n as u64)
        }
        Some(_) => {
            return Err(QueryError::new(
                "'seed' must be \"default\" or a hex string",
            ))
        }
    };
    let mut overrides = Vec::new();
    if let Some(list) = v.get("overrides") {
        let items = list
            .as_arr()
            .ok_or_else(|| QueryError::new("'overrides' must be an array"))?;
        for item in items {
            let machine = item
                .get("machine")
                .and_then(Json::as_str)
                .ok_or_else(|| QueryError::new("override needs a 'machine' string"))?;
            let field = OverrideField::from_str(
                item.get("field")
                    .and_then(Json::as_str)
                    .ok_or_else(|| QueryError::new("override needs a 'field' string"))?,
            )?;
            let value = item
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| QueryError::new("override needs a numeric 'value'"))?;
            overrides.push(SpecOverride::parsed(machine, field, value)?);
        }
    }
    Ok(QueryParams {
        profile,
        seed,
        overrides,
    })
}

// ---------------------------------------------------------------------
// Digests and cache keys
// ---------------------------------------------------------------------

/// Content digest of one machine spec: FNV-1a over the full `Debug`
/// rendering, which derives through every model field (topology, memory
/// model, GPU models, MPI config, jitter, software env). Any single
/// field flip changes the digest — pinned by the seeded-mutation test.
/// The rendering streams into the hash, so no 13 KB string is built.
// doebench::effects(pure)
pub fn machine_digest(m: &Machine) -> u64 {
    fnv1a_fmt(format_args!("{m:?}"))
}

/// [`machine_digest`] of every [`catalog`] machine, in catalog order,
/// computed once per process. Planning takes a pristine machine's digest
/// from here and streams only the machines an override changed.
fn catalog_digests() -> &'static [u64] {
    static DIGESTS: OnceLock<Vec<u64>> = OnceLock::new();
    DIGESTS.get_or_init(|| catalog().iter().map(machine_digest).collect())
}

/// Content digest of the campaign (suite configs + master seed).
// doebench::effects(pure)
pub fn campaign_digest(c: &Campaign) -> u64 {
    fnv1a_fmt(format_args!("{c:?}"))
}

/// The content-addressed identity of one plan cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellKey {
    /// Full canonical key string (collision guard; the map key).
    pub canon: String,
    /// FNV-1a of `canon` (shard selector / display handle).
    pub hash: u64,
    /// Table the cell belongs to (`"table4"`, `"sweep"`, …).
    pub table: &'static str,
    /// Machine the cell depends on — the invalidation unit.
    pub machine: String,
}

// ---------------------------------------------------------------------
// Planning and execution
// ---------------------------------------------------------------------

/// One point of a sweep cell.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// On-socket one-way latency, µs.
    pub socket: Summary,
    /// On-node one-way latency, µs.
    pub node: Summary,
}

/// The sweep result for one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Machine name.
    pub machine: String,
    /// `"<rank>. <name>"` label.
    pub label: String,
    /// One point per configured message size.
    pub points: Vec<SweepPoint>,
}

/// The computed value of one cell — one table row on one machine. This
/// is what the daemon's cache stores; everything downstream (rendering,
/// Table 7 summarization) is a pure function of these.
#[derive(Clone, Debug)]
pub enum RowValue {
    /// A Table 4 row.
    T4(table4::Row),
    /// A Table 5 row.
    T5(table5::Row),
    /// A Table 6 row.
    T6(table6::Row),
    /// A sweep column.
    Sweep(SweepRow),
}

/// Which benchmark family a planned cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellSpec {
    T4,
    T5,
    T6,
    Sweep,
}

/// One cell of a query plan.
pub struct PlannedCell {
    /// Content-addressed identity.
    pub key: CellKey,
    machine: Cow<'static, Machine>,
    spec: CellSpec,
}

impl PlannedCell {
    /// A cell keyed by its machine's spec digest — memoized for a
    /// borrowed catalog entry, streamed for a clone an override changed —
    /// and by `camp`, the plan's [`campaign_digest`].
    fn new(
        table: &'static str,
        machine: Cow<'static, Machine>,
        spec: CellSpec,
        camp: u64,
        extra: &str,
    ) -> PlannedCell {
        let digest = match &machine {
            Cow::Borrowed(pristine) => {
                let i = catalog()
                    .iter()
                    .position(|c| std::ptr::eq(c, *pristine))
                    .expect("borrowed machines come from the catalog");
                catalog_digests()[i]
            }
            Cow::Owned(changed) => machine_digest(changed),
        };
        let canon = format!(
            "cell/v={CODE_VERSION}/t={table}/m={}/spec={digest:016x}/camp={camp:016x}{extra}",
            machine.name,
        );
        let key = CellKey {
            hash: fnv1a64(canon.as_bytes()),
            canon,
            table,
            machine: machine.name.to_string(),
        };
        PlannedCell { key, machine, spec }
    }
}

/// Which tables [`QueryPlan::assemble`] emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    One(TableId),
    Sweep,
    Suite,
}

/// An expanded, validated query: resolved machines, derived campaign,
/// and the row-granular cell list with content-addressed keys.
pub struct QueryPlan {
    /// Canonical serialization of the source query.
    pub canon: String,
    /// FNV-1a content hash of the whole query (canon + campaign digest).
    pub key: u64,
    campaign: Campaign,
    cells: Vec<PlannedCell>,
    shape: Shape,
    sweep_cfg: Option<OsuConfig>,
}

/// The catalog machine named `name` (case-insensitive).
fn catalog_machine(name: &str) -> Result<&'static Machine, QueryError> {
    doe_machines::find(name).ok_or_else(|| QueryError::new(format!("unknown machine: {name}")))
}

/// A catalog machine with its overrides applied: borrowed when no
/// override names it, cloned once when one does.
fn resolve_machine(
    pristine: &'static Machine,
    overrides: &[SpecOverride],
) -> Result<Cow<'static, Machine>, QueryError> {
    let mut m = Cow::Borrowed(pristine);
    for o in overrides {
        if o.machine.eq_ignore_ascii_case(pristine.name) {
            o.field.apply(m.to_mut(), o.value)?;
        }
    }
    Ok(m)
}

fn select_machines(
    sel: &MachineSel,
    want_accelerated: bool,
    table: &str,
    overrides: &[SpecOverride],
) -> Result<Vec<Cow<'static, Machine>>, QueryError> {
    match sel {
        MachineSel::All => catalog()
            .iter()
            .filter(|m| m.is_accelerated() == want_accelerated)
            .map(|m| resolve_machine(m, overrides))
            .collect(),
        MachineSel::Named(names) => names
            .iter()
            .map(|n| {
                let m = resolve_machine(catalog_machine(n)?, overrides)?;
                if m.is_accelerated() != want_accelerated {
                    return Err(QueryError::new(format!(
                        "{n} is {} machine; {table} covers {} machines",
                        if m.is_accelerated() {
                            "an accelerator"
                        } else {
                            "a CPU"
                        },
                        if want_accelerated {
                            "accelerator"
                        } else {
                            "CPU"
                        },
                    )));
                }
                Ok(m)
            })
            .collect(),
    }
}

/// The sweep's OSU configuration for a profile (the CLI `sweep`
/// command's long-standing shape: full size ladder, reduced iterations
/// on the quick profile).
pub fn sweep_config(profile: Profile) -> OsuConfig {
    let mut cfg = OsuConfig::paper();
    match profile {
        Profile::Paper => {
            cfg.reps = 100;
            cfg.small_iters = 1000;
            cfg.large_iters = 100;
        }
        Profile::Quick => {
            cfg.reps = 10;
            cfg.small_iters = 100;
            cfg.large_iters = 10;
        }
    }
    cfg
}

/// Expand a query into its validated plan.
pub fn plan(q: &Query) -> Result<QueryPlan, QueryError> {
    let params = q.params();
    let campaign = params.campaign();
    let camp = campaign_digest(&campaign);
    let canon = q.canonical();
    let mut cells = Vec::new();
    let mut sweep_cfg = None;
    let shape;
    match q {
        Query::Table { id, machines, .. } => {
            shape = Shape::One(*id);
            plan_table(*id, machines, &params.overrides, camp, &mut cells)?;
        }
        Query::Suite { .. } => {
            shape = Shape::Suite;
            for id in [TableId::Table4, TableId::Table5, TableId::Table6] {
                plan_table(id, &MachineSel::All, &params.overrides, camp, &mut cells)?;
            }
        }
        Query::Sweep { machines, .. } => {
            shape = Shape::Sweep;
            let cfg = sweep_config(params.profile);
            let extra = format!("/sweep={:016x}", fnv1a_fmt(format_args!("{cfg:?}")));
            for name in machines {
                let m = resolve_machine(catalog_machine(name)?, &params.overrides)?;
                if on_node_pair(&m.topo).is_none() || on_socket_pair(&m.topo).is_none() {
                    return Err(QueryError::new(format!("{name} is too small to sweep")));
                }
                cells.push(PlannedCell::new("sweep", m, CellSpec::Sweep, camp, &extra));
            }
            sweep_cfg = Some(cfg);
        }
    }
    let key = fnv1a_fmt(format_args!("{canon}/camp={camp:016x}"));
    Ok(QueryPlan {
        canon,
        key,
        campaign,
        cells,
        shape,
        sweep_cfg,
    })
}

fn plan_table(
    id: TableId,
    machines: &MachineSel,
    overrides: &[SpecOverride],
    camp: u64,
    cells: &mut Vec<PlannedCell>,
) -> Result<(), QueryError> {
    match id {
        TableId::Table4 => {
            for m in select_machines(machines, false, "table4", overrides)? {
                cells.push(PlannedCell::new("table4", m, CellSpec::T4, camp, ""));
            }
        }
        TableId::Table5 | TableId::Table6 => {
            let table = id.as_str();
            let spec = if id == TableId::Table5 {
                CellSpec::T5
            } else {
                CellSpec::T6
            };
            let tag: &'static str = if id == TableId::Table5 {
                "table5"
            } else {
                "table6"
            };
            for m in select_machines(machines, true, table, overrides)? {
                cells.push(PlannedCell::new(tag, m, spec, camp, ""));
            }
        }
        TableId::Table7 => {
            // Table 7 is derived: its cells are the Table 5 + Table 6 rows
            // it summarizes (shared with those tables' caches).
            if !matches!(machines, MachineSel::All) {
                return Err(QueryError::new(
                    "table7 summarizes all accelerator machines; it takes no machine list",
                ));
            }
            plan_table(TableId::Table5, &MachineSel::All, overrides, camp, cells)?;
            plan_table(TableId::Table6, &MachineSel::All, overrides, camp, cells)?;
        }
    }
    Ok(())
}

impl QueryPlan {
    /// The plan's cells, in assembly order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// The campaign the cells run under.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Execute one cell. Pure: the value depends only on the cell's
    /// (machine spec, campaign) — exactly what its key hashes.
    // doebench::effects(no-block)
    pub fn compute(&self, i: usize) -> RowValue {
        let cell = &self.cells[i];
        let c = &self.campaign;
        match cell.spec {
            CellSpec::T4 => RowValue::T4(table4::run_machine(&cell.machine, c)),
            CellSpec::T5 => RowValue::T5(table5::run_machine(&cell.machine, c)),
            CellSpec::T6 => RowValue::T6(table6::run_machine(&cell.machine, c)),
            CellSpec::Sweep => RowValue::Sweep(self.sweep_cell(&cell.machine)),
        }
    }

    fn sweep_cell(&self, m: &Machine) -> SweepRow {
        let cfg = self.sweep_cfg.as_ref().expect("sweep plan has a config");
        let socket = on_socket_pair(&m.topo).expect("validated at plan time");
        let node = on_node_pair(&m.topo).expect("validated at plan time");
        let lat_s = osu_latency(
            &m.topo,
            &m.mpi,
            socket,
            cfg,
            self.campaign.seed_for(m.name, "sweep-socket"),
        );
        let lat_n = osu_latency(
            &m.topo,
            &m.mpi,
            node,
            cfg,
            self.campaign.seed_for(m.name, "sweep-node"),
        );
        SweepRow {
            machine: m.name.to_string(),
            label: m.table_label(),
            points: lat_s
                .iter()
                .zip(&lat_n)
                .map(|(s, n)| SweepPoint {
                    bytes: s.bytes,
                    socket: s.one_way_us,
                    node: n.one_way_us,
                })
                .collect(),
        }
    }

    /// Fold computed (or cached) cell values — one per plan cell, in
    /// order — into the final result. Pure function of the values, so
    /// responses assembled from cache are byte-identical to cold runs.
    pub fn assemble(&self, values: &[Arc<RowValue>]) -> Result<QueryResult, QueryError> {
        if values.len() != self.cells.len() {
            return Err(QueryError::new("cell value count mismatch"));
        }
        // The tables borrow the (possibly cached) rows; nothing is cloned.
        let mut t4 = Vec::new();
        let mut t5 = Vec::new();
        let mut t6 = Vec::new();
        let mut sweeps = Vec::new();
        for v in values {
            match v.as_ref() {
                RowValue::T4(r) => t4.push(r),
                RowValue::T5(r) => t5.push(r),
                RowValue::T6(r) => t6.push(r),
                RowValue::Sweep(r) => sweeps.push(r),
            }
        }
        let tables = match self.shape {
            Shape::One(TableId::Table4) => vec![table4::result(&t4)],
            Shape::One(TableId::Table5) => vec![table5::result(&t5)],
            Shape::One(TableId::Table6) => vec![table6::result(&t6)],
            Shape::One(TableId::Table7) => {
                vec![table7::result(&table7::summarize_by(&t5, &t6))]
            }
            Shape::Suite => vec![
                table4::result(&t4),
                table5::result(&t5),
                table6::result(&t6),
                table7::result(&table7::summarize_by(&t5, &t6)),
            ],
            Shape::Sweep => vec![sweep_result(&sweeps)],
        };
        Ok(QueryResult {
            query: self.canon.clone(),
            key: format!("{:016x}", self.key),
            code_version: CODE_VERSION.to_string(),
            tables,
        })
    }
}

/// Assemble sweep columns into the comparison table.
fn sweep_result(rows: &[&SweepRow]) -> TableResult {
    let mut t = TableResult::new("sweep", "OSU point-to-point latency sweep (us)");
    t.push_column("Bytes", Unit::Bytes);
    for r in rows {
        t.push_column(format!("{} On-Socket", r.machine), Unit::Micros);
        t.push_column(format!("{} On-Node", r.machine), Unit::Micros);
    }
    let n_points = rows.iter().map(|r| r.points.len()).min().unwrap_or(0);
    for i in 0..n_points {
        let mut cells = vec![CellValue::Text(rows[0].points[i].bytes.to_string())];
        for r in rows {
            cells.push(CellValue::Stat(r.points[i].socket));
            cells.push(CellValue::Stat(r.points[i].node));
        }
        t.push_row(None, cells);
    }
    t
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// A fully assembled query response payload. Deterministic: rendering
/// carries no wall-clock, host, or cache-state dependence, so identical
/// queries always produce byte-identical bodies (serving metadata
/// travels separately, in the daemon's response headers).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Canonical serialization of the query answered
    /// ([`Query::canonical`]); the JSON body splices it in verbatim, so
    /// it must be canonical JSON text.
    pub query: String,
    /// `%016x` FNV content hash of (query, campaign digest).
    pub key: String,
    /// [`CODE_VERSION`] that produced the result.
    pub code_version: String,
    /// One or more structured tables.
    pub tables: Vec<TableResult>,
}

impl QueryResult {
    /// Append the response body in a format to `out` — the single render
    /// path shared by the CLI and the daemon. JSON is the envelope
    /// object (keys in canonical order, `query` spliced in verbatim);
    /// text formats concatenate tables exactly the way the legacy
    /// subcommands printed them.
    // doebench::hot
    pub fn write_body(&self, f: Format, out: &mut String) {
        match f {
            Format::Json => {
                out.push_str("{\"code_version\":");
                json::write_str(&self.code_version, out);
                out.push_str(",\"key\":");
                json::write_str(&self.key, out);
                out.push_str(",\"query\":");
                out.push_str(&self.query);
                out.push_str(",\"tables\":");
                json::write_array(&self.tables, out, |t, out| t.write(f, out));
                out.push('}');
            }
            text => {
                for (i, t) in self.tables.iter().enumerate() {
                    if i > 0 {
                        out.push('\n');
                    }
                    t.write(text, out);
                }
            }
        }
    }

    /// [`QueryResult::write_body`] into a fresh string.
    pub fn body(&self, f: Format) -> String {
        let mut out = String::new();
        self.write_body(f, &mut out);
        out
    }
}

/// Plan and execute a query in one call, fanning cold cells over the
/// worker pool — the offline (non-daemon) entry point the CLI table
/// subcommands are thin clients of.
pub fn run_query(q: &Query) -> Result<QueryResult, QueryError> {
    let plan = plan(q)?;
    let n = plan.cells().len();
    let values: Vec<Arc<RowValue>> =
        crate::sched::run_cells(&(0..n).collect::<Vec<_>>(), |&i| Arc::new(plan.compute(i)));
    plan.assemble(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrip_is_byte_stable() {
        let q = Query::Table {
            id: TableId::Table5,
            machines: MachineSel::Named(vec!["Frontier".into(), "Summit".into()]),
            params: QueryParams {
                profile: Profile::Paper,
                seed: Some(0xDEAD_BEEF),
                overrides: vec![SpecOverride {
                    machine: "Frontier".into(),
                    field: OverrideField::GpuLaunchUs,
                    value: 2.5,
                }],
            },
        };
        let canon = q.canonical();
        let parsed = Query::parse(&canon).unwrap();
        assert_eq!(parsed, q);
        assert_eq!(parsed.canonical(), canon);
    }

    #[test]
    fn shorthand_parses_the_readme_examples() {
        let q = Query::parse_shorthand("table4").unwrap();
        assert_eq!(
            q,
            Query::Table {
                id: TableId::Table4,
                machines: MachineSel::All,
                params: QueryParams::quick(),
            }
        );
        let q = Query::parse_shorthand("table5@paper Frontier seed=0x7").unwrap();
        match q {
            Query::Table {
                id,
                machines,
                params,
            } => {
                assert_eq!(id, TableId::Table5);
                assert_eq!(machines, MachineSel::Named(vec!["Frontier".into()]));
                assert_eq!(params.profile, Profile::Paper);
                assert_eq!(params.seed, Some(7));
            }
            other => panic!("wrong query: {other:?}"),
        }
        let q =
            Query::parse_shorthand("sweep Eagle Theta set Eagle.mpi_shm_latency_us=0.2").unwrap();
        match q {
            Query::Sweep { machines, params } => {
                assert_eq!(machines, vec!["Eagle".to_string(), "Theta".to_string()]);
                assert_eq!(params.overrides.len(), 1);
            }
            other => panic!("wrong query: {other:?}"),
        }
        assert!(Query::parse_shorthand("table9").is_err());
        assert!(Query::parse_shorthand("sweep").is_err());
        assert!(Query::parse_shorthand("table4 bogus=1").is_err());
    }

    #[test]
    fn machine_digest_is_spec_sensitive() {
        let a = doe_machines::by_name("Frontier").unwrap();
        let mut b = a.clone();
        assert_eq!(machine_digest(&a), machine_digest(&b));
        b.gpu_models[0].launch_overhead = doe_simtime::SimDuration::from_us(9.0);
        assert_ne!(machine_digest(&a), machine_digest(&b));
    }

    #[test]
    fn streamed_digest_equals_hash_of_the_debug_text() {
        for m in catalog() {
            assert_eq!(
                machine_digest(m),
                fnv1a64(format!("{m:?}").as_bytes()),
                "{}",
                m.name
            );
        }
        for (name, fields) in [
            ("Eagle", &OverrideField::ALL[..7]),
            ("Frontier", &OverrideField::ALL[..]),
        ] {
            for &field in fields {
                let mut m = doe_machines::by_name(name).unwrap();
                field.apply(&mut m, 0.375).unwrap();
                assert_eq!(
                    machine_digest(&m),
                    fnv1a64(format!("{m:?}").as_bytes()),
                    "{name}.{}",
                    field.as_str()
                );
            }
        }
        let c = QueryParams::quick().campaign();
        assert_eq!(campaign_digest(&c), fnv1a64(format!("{c:?}").as_bytes()));
    }

    #[test]
    fn memoized_pristine_digests_equal_fresh_ones() {
        assert_eq!(catalog_digests().len(), catalog().len());
        for (m, &d) in catalog().iter().zip(catalog_digests()) {
            assert_eq!(d, fnv1a64(format!("{m:?}").as_bytes()), "{}", m.name);
        }
    }

    #[test]
    fn only_an_overridden_machine_is_cloned() {
        let eagle = doe_machines::find("Eagle").unwrap();
        let set = |machine: &str| SpecOverride {
            machine: machine.into(),
            field: OverrideField::MpiShmLatencyUs,
            value: 0.3,
        };
        assert!(matches!(
            resolve_machine(eagle, &[set("Theta")]).unwrap(),
            Cow::Borrowed(_)
        ));
        let changed = resolve_machine(eagle, &[set("Eagle")]).unwrap();
        assert!(matches!(changed, Cow::Owned(_)));
        let spec = format!(
            "/spec={:016x}/",
            fnv1a64(format!("{:?}", *changed).as_bytes())
        );
        let cell = PlannedCell::new("table4", changed, CellSpec::T4, 0, "");
        assert!(cell.key.canon.contains(&spec), "{}", cell.key.canon);
        let pristine = PlannedCell::new("table4", Cow::Borrowed(eagle), CellSpec::T4, 0, "");
        assert_ne!(pristine.key.canon, cell.key.canon);
    }

    fn cell_keys(shorthand: &str) -> Vec<String> {
        let p = plan(&Query::parse_shorthand(shorthand).unwrap()).unwrap();
        p.cells().iter().map(|c| c.key.canon.clone()).collect()
    }

    #[test]
    fn override_machine_names_resolve_case_insensitively() {
        // A lower-case override on an unrestricted table applies, and
        // canonicalizes to the catalog spelling.
        let q = Query::parse_shorthand("table4 set eagle.mpi_shm_latency_us=0.3").unwrap();
        assert_eq!(q.params().overrides[0].machine, "Eagle");
        assert_eq!(
            q,
            Query::parse_shorthand("table4 set Eagle.mpi_shm_latency_us=0.3").unwrap()
        );
        assert_ne!(
            cell_keys("table4 set eagle.mpi_shm_latency_us=0.3"),
            cell_keys("table4")
        );
        // The override applies whatever spelling the machine list uses.
        let pristine = cell_keys("table4 eagle");
        for q in [
            "table4 eagle set Eagle.mpi_shm_latency_us=0.3",
            "table4 eagle set eagle.mpi_shm_latency_us=0.3",
            "table4 Eagle set EAGLE.mpi_shm_latency_us=0.3",
        ] {
            assert_ne!(cell_keys(q), pristine, "{q}");
            assert_eq!(
                cell_keys(q),
                cell_keys("table4 Eagle set Eagle.mpi_shm_latency_us=0.3"),
                "{q}"
            );
        }
        // The JSON form canonicalizes the same way.
        let q = Query::parse(
            r#"{"kind":"suite","overrides":[{"machine":"frontier","field":"gpu_launch_us","value":2.5}]}"#,
        )
        .unwrap();
        assert_eq!(q.params().overrides[0].machine, "Frontier");
    }

    #[test]
    fn unknown_override_machine_is_an_error() {
        let e = Query::parse_shorthand("table4 set Nosuch.mpi_shm_latency_us=0.3").unwrap_err();
        assert!(e.0.contains("unknown machine: Nosuch"), "{e}");
        let e = Query::parse(
            r#"{"kind":"suite","overrides":[{"machine":"Nosuch","field":"gpu_launch_us","value":2.5}]}"#,
        )
        .unwrap_err();
        assert!(e.0.contains("unknown machine: Nosuch"), "{e}");
    }

    /// Parse one override both ways: as a shorthand `set` and in JSON.
    fn parse_both(machine: &str, field: OverrideField, value: f64) -> [Result<f64, QueryError>; 2] {
        let name = field.as_str();
        let value_of = |q: Query| q.params().overrides[0].value;
        [
            Query::parse_shorthand(&format!("table4 set {machine}.{name}={value:?}")).map(value_of),
            Query::parse(&format!(
                r#"{{"kind":"suite","overrides":[{{"machine":"{machine}","field":"{name}","value":{value:e}}}]}}"#
            ))
            .map(value_of),
        ]
    }

    #[test]
    fn override_values_are_checked_at_each_bound() {
        for field in OverrideField::ALL {
            let (lo, hi, _) = field.range();
            let machine = "Frontier";
            // The bounds themselves, and a value just past each one.
            let accepted = [lo, (lo + hi) / 2.0, hi];
            let rejected = [lo - lo.abs().max(1.0) * 1e-9, hi + hi * 1e-9];
            for v in accepted {
                for got in parse_both(machine, field, v) {
                    assert_eq!(got.unwrap(), v, "{} = {v} is in range", field.as_str());
                }
            }
            for v in rejected {
                for got in parse_both(machine, field, v) {
                    let e = got.expect_err("out of range");
                    assert!(e.0.contains(field.as_str()), "{e}");
                    assert!(e.0.contains("out of range"), "{e}");
                }
            }
        }
        // The cases that once panicked inside a cell or answered nonsense.
        for q in [
            "table6 Frontier set Frontier.gpu_launch_us=1e13",
            "table4 Eagle set Eagle.mpi_shm_latency_us=1e13",
            "table4 Eagle set Eagle.host_peak_bw_gb_s=0",
            "table4 Eagle set Eagle.host_peak_bw_gb_s=-3",
            "table4 Eagle set Eagle.mpi_shm_latency_us=-1",
            "table4 Eagle set Eagle.host_peak_bw_gb_s=inf",
            "table4 Eagle set Eagle.host_sustained_efficiency=NaN",
        ] {
            assert!(Query::parse_shorthand(q).is_err(), "{q}");
        }
        // Both zeros are one value, so one cache key.
        let key = |v: &str| {
            Query::parse_shorthand(&format!("table4 set Eagle.mpi_shm_latency_us={v}"))
                .unwrap()
                .canonical()
        };
        assert_eq!(key("-0"), key("0"));
    }

    #[test]
    fn override_changes_only_dependent_cells() {
        let base = Query::Table {
            id: TableId::Table5,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let tweaked = Query::Table {
            id: TableId::Table5,
            machines: MachineSel::All,
            params: QueryParams {
                overrides: vec![SpecOverride {
                    machine: "Frontier".into(),
                    field: OverrideField::GpuPeakBwGbS,
                    value: 2000.0,
                }],
                ..QueryParams::quick()
            },
        };
        let p0 = plan(&base).unwrap();
        let p1 = plan(&tweaked).unwrap();
        assert_eq!(p0.cells().len(), p1.cells().len());
        for (c0, c1) in p0.cells().iter().zip(p1.cells()) {
            assert_eq!(c0.key.machine, c1.key.machine);
            if c0.key.machine == "Frontier" {
                assert_ne!(c0.key.canon, c1.key.canon, "override must change the key");
            } else {
                assert_eq!(
                    c0.key.canon, c1.key.canon,
                    "unrelated machine keys must not move"
                );
            }
        }
    }

    #[test]
    fn table7_plan_shares_table5_and_6_cells() {
        let q7 = Query::Table {
            id: TableId::Table7,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let q5 = Query::Table {
            id: TableId::Table5,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let p7 = plan(&q7).unwrap();
        let p5 = plan(&q5).unwrap();
        let keys7: Vec<&str> = p7.cells().iter().map(|c| c.key.canon.as_str()).collect();
        for c in p5.cells() {
            assert!(keys7.contains(&c.key.canon.as_str()), "{}", c.key.canon);
        }
    }

    #[test]
    fn gpu_override_on_cpu_machine_is_an_error() {
        let q = Query::Table {
            id: TableId::Table4,
            machines: MachineSel::Named(vec!["Eagle".into()]),
            params: QueryParams {
                overrides: vec![SpecOverride {
                    machine: "Eagle".into(),
                    field: OverrideField::GpuLaunchUs,
                    value: 1.0,
                }],
                ..QueryParams::quick()
            },
        };
        assert!(plan(&q).err().unwrap().0.contains("no accelerator"));
    }

    #[test]
    fn run_query_table4_matches_direct_run() {
        let q = Query::Table {
            id: TableId::Table4,
            machines: MachineSel::All,
            params: QueryParams::quick(),
        };
        let res = run_query(&q).unwrap();
        assert_eq!(res.tables.len(), 1);
        let direct = table4::result(&table4::run(&Campaign::quick()));
        assert_eq!(res.tables[0], direct);
        assert_eq!(
            res.body(Format::Ascii),
            doe_report::render(&direct, Format::Ascii)
        );
    }

    #[test]
    fn json_body_is_the_canonical_envelope() {
        let q = Query::parse_shorthand("table4 Eagle seed=0x7 set Eagle.mpi_shm_latency_us=0.3")
            .unwrap();
        let res = run_query(&q).unwrap();
        let tables = res
            .tables
            .iter()
            .map(|t| json::parse(&doe_report::render(t, Format::Json)).unwrap())
            .collect();
        let envelope = Json::obj([
            ("code_version", Json::s(res.code_version.clone())),
            ("key", Json::s(res.key.clone())),
            ("query", json::parse(&res.query).unwrap()),
            ("tables", Json::Arr(tables)),
        ]);
        assert_eq!(res.body(Format::Json), envelope.canonical());
    }

    #[test]
    fn sweep_assembles_machine_columns() {
        let q = Query::Sweep {
            machines: vec!["Eagle".into(), "Theta".into()],
            params: QueryParams::quick(),
        };
        let res = run_query(&q).unwrap();
        let t = &res.tables[0];
        assert_eq!(t.columns.len(), 5);
        assert!(t.columns[1].name.contains("Eagle"));
        assert!(t.columns[3].name.contains("Theta"));
        assert!(!t.rows.is_empty());
    }
}
