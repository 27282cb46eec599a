//! Unit-tagged wrappers for machine-model quantities.
//!
//! The model structs store bare `f64` bandwidths (decimal GB/s, the unit
//! every paper table prints) and [`SimDuration`] latencies. Transcription
//! errors in those constants are invisible to the type system: a GiB/s
//! datasheet figure is just another `f64`, and a nanosecond value pasted
//! into a microsecond slot is off by ×1000 with no compiler complaint.
//!
//! The newtypes here make the *unit* part of the type, so conversions are
//! explicit calls rather than silent coercions. The static checker
//! (`dessan-model`) routes every comparison through them, and
//! [`CitedPeak`] parses the paper's "Peak" column cells (`"1600 [4]"`,
//! `"> 450 [34]"`, `"-"`) into comparable values instead of strings.
//!
//! Mixing units is a compile error. Decimal against binary bandwidth:
//!
//! ```compile_fail
//! use doe_machines::units::{GbPerS, GibPerS};
//! let _ = GbPerS(1600.0) >= GibPerS(1490.0);
//! ```
//!
//! Microseconds against nanoseconds:
//!
//! ```compile_fail
//! use doe_machines::units::{Micros, Nanos};
//! let _ = Micros(0.5) < Nanos(400.0);
//! ```
//!
//! The same comparisons compile once both sides carry one unit, which is
//! what keeps the two blocks above failing for the unit mix alone:
//!
//! ```
//! use doe_machines::units::{GbPerS, GibPerS, Micros, Nanos};
//! assert!(GbPerS(1600.0) >= GibPerS(1490.0).to_gb_per_s());
//! assert!(Micros(0.5) > Nanos(400.0).to_micros());
//! ```
//!
//! Leaving the types for a bare `f64` goes through `as_us()`: `dessan`'s
//! `unit-extract` rule flags `.as_ns()` and `.as_secs()` in this crate,
//! `memmodel`, `simtime` and `mpisim`, so every bare `f64` time there is
//! in µs.

use doe_simtime::SimDuration;

use crate::machine::Machine;

/// One binary gigabyte (GiB) in decimal gigabytes: 2^30 / 10^9.
pub const GIB_PER_GB: f64 = 1.073741824;

/// Decimal gigabytes per second — the unit of every bandwidth column in
/// Tables 4–6 and of every `*_bw_gb_s` model field.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct GbPerS(pub f64);

/// Binary gibibytes per second — the unit some vendor datasheets quote.
/// Never stored in the models; exists so datasheet figures convert
/// explicitly on the way in.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct GibPerS(pub f64);

impl GibPerS {
    /// Convert to the decimal unit the models store.
    pub fn to_gb_per_s(self) -> GbPerS {
        GbPerS(self.0 * GIB_PER_GB)
    }
}

/// Microseconds — the unit of every latency column in Tables 4–6.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Micros(pub f64);

impl Micros {
    /// Tag a simulated duration with its table unit.
    pub fn from_sim(d: SimDuration) -> Micros {
        Micros(d.as_us())
    }
}

/// Nanoseconds — the unit link latencies are usually quoted in.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Nanos(pub f64);

impl Nanos {
    /// Tag a simulated duration with this unit.
    pub fn from_sim(d: SimDuration) -> Nanos {
        // dessan::allow(unit-extract): the one conversion into the typed ns quantity.
        Nanos(d.as_ns())
    }

    /// Convert to the table unit.
    pub fn to_micros(self) -> Micros {
        Micros(self.0 / 1e3)
    }
}

/// A byte count with binary-prefix constructors, for capacities such as
/// [`doe_memmodel::MemDomainModel::llc_bytes`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Bytes(pub u64);

impl Bytes {
    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Bytes {
        Bytes(n << 10)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Bytes {
        Bytes(n << 20)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Bytes {
        Bytes(n << 30)
    }
}

/// The numeric claim a "Peak" cell makes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PeakBound {
    /// An exact datasheet figure, e.g. `"1600 [4]"`.
    Exact(GbPerS),
    /// A lower bound, e.g. `"> 450 [34]"`.
    LowerBound(GbPerS),
    /// The cell is `"-"`: no figure cited.
    Unstated,
}

/// A parsed "Peak" column cell: the bound plus the bracketed citation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CitedPeak {
    /// The numeric claim.
    pub bound: PeakBound,
    /// The `[n]` reference number, when present.
    pub citation: Option<u32>,
}

impl CitedPeak {
    /// The cited figure if the cell states one (exact or lower bound).
    pub fn value(&self) -> Option<GbPerS> {
        match self.bound {
            PeakBound::Exact(v) | PeakBound::LowerBound(v) => Some(v),
            PeakBound::Unstated => None,
        }
    }

    /// True when `measured` is consistent with this cell: at most the
    /// exact figure (with `slack` relative tolerance for rounding), or
    /// anything for a lower bound / unstated cell — a lower bound
    /// constrains the *peak*, not the measurement.
    pub fn admits(&self, measured: GbPerS, slack: f64) -> bool {
        match self.bound {
            PeakBound::Exact(v) => measured.0 <= v.0 * (1.0 + slack),
            PeakBound::LowerBound(_) | PeakBound::Unstated => true,
        }
    }
}

/// Parse a "Peak" cell as the paper prints it. Returns `None` for cells
/// that match none of the three published shapes.
pub fn parse_peak_citation(cell: &str) -> Option<CitedPeak> {
    let cell = cell.trim();
    if cell == "-" {
        return Some(CitedPeak {
            bound: PeakBound::Unstated,
            citation: None,
        });
    }
    let (lower, rest) = match cell.strip_prefix('>') {
        Some(r) => (true, r.trim_start()),
        None => (false, cell),
    };
    let (num_part, citation) = match rest.find('[') {
        Some(i) => {
            let inside = rest[i + 1..].strip_suffix(']')?;
            (rest[..i].trim_end(), Some(inside.trim().parse().ok()?))
        }
        // Extension machines cite vendor datasheets as a trailing
        // parenthetical, e.g. `"409.6 (datasheet)"` — no reference number.
        None => match rest.find('(') {
            Some(i) if rest.ends_with(')') => (rest[..i].trim_end(), None),
            _ => (rest, None),
        },
    };
    let v: f64 = num_part.parse().ok()?;
    if !v.is_finite() || v <= 0.0 {
        return None;
    }
    let bw = GbPerS(v);
    Some(CitedPeak {
        bound: if lower {
            PeakBound::LowerBound(bw)
        } else {
            PeakBound::Exact(bw)
        },
        citation,
    })
}

impl Machine {
    /// Host memory peak bandwidth, unit-tagged.
    pub fn host_peak(&self) -> GbPerS {
        GbPerS(self.host_mem.peak_bw_gb_s)
    }

    /// Device HBM peak bandwidth of the first GPU (all devices on a node
    /// are identical), if this machine has any.
    pub fn device_peak(&self) -> Option<GbPerS> {
        self.gpu_models.first().map(|g| GbPerS(g.hbm.peak_bw_gb_s))
    }

    /// The parsed host "Peak" citation cell.
    pub fn cited_host_peak(&self) -> Option<CitedPeak> {
        parse_peak_citation(self.host_peak_citation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gib_to_gb_matches_the_binary_prefix() {
        let one = GibPerS(1.0).to_gb_per_s();
        assert!((one.0 - 1.073741824).abs() < 1e-12);
    }

    #[test]
    fn micros_round_trip_through_sim_duration() {
        let d = SimDuration::from_us(12.5);
        assert!((Micros::from_sim(d).0 - 12.5).abs() < 1e-9);
        assert!((Nanos(270.0).to_micros().0 - 0.27).abs() < 1e-9);
    }

    #[test]
    fn bytes_constructors_are_binary() {
        assert_eq!(Bytes::kib(1).0, 1024);
        assert_eq!(Bytes::mib(2).0, 2 * 1024 * 1024);
        assert_eq!(Bytes::gib(1).0, 1 << 30);
    }

    #[test]
    fn peak_cells_parse_in_all_three_published_shapes() {
        let exact = parse_peak_citation("1600 [4]").unwrap();
        assert_eq!(exact.bound, PeakBound::Exact(GbPerS(1600.0)));
        assert_eq!(exact.citation, Some(4));

        let lower = parse_peak_citation("> 450 [34]").unwrap();
        assert_eq!(lower.bound, PeakBound::LowerBound(GbPerS(450.0)));
        assert_eq!(lower.citation, Some(34));

        let fractional = parse_peak_citation("281.50 [13]").unwrap();
        assert_eq!(fractional.value(), Some(GbPerS(281.5)));

        let unstated = parse_peak_citation("-").unwrap();
        assert_eq!(unstated.bound, PeakBound::Unstated);
        assert_eq!(unstated.value(), None);

        let datasheet = parse_peak_citation("409.6 (datasheet)").unwrap();
        assert_eq!(datasheet.bound, PeakBound::Exact(GbPerS(409.6)));
        assert_eq!(datasheet.citation, None);
    }

    #[test]
    fn malformed_peak_cells_are_rejected() {
        assert!(parse_peak_citation("fast").is_none());
        assert!(parse_peak_citation("1600 [x]").is_none());
        assert!(parse_peak_citation("-5 [1]").is_none());
        assert!(parse_peak_citation("").is_none());
    }

    #[test]
    fn admits_respects_bound_kinds() {
        let exact = parse_peak_citation("900 [1]").unwrap();
        assert!(exact.admits(GbPerS(861.40), 0.001));
        assert!(!exact.admits(GbPerS(950.0), 0.001));
        let lower = parse_peak_citation("> 450 [34]").unwrap();
        assert!(lower.admits(GbPerS(10_000.0), 0.0));
    }

    #[test]
    fn every_machine_citation_cell_parses() {
        for m in crate::all_machines() {
            assert!(
                m.cited_host_peak().is_some(),
                "{}: host cell `{}`",
                m.name,
                m.host_peak_citation
            );
            if let Some(parsed) = m.device_peak_citation.map(parse_peak_citation) {
                assert!(parsed.is_some(), "{}: device cell", m.name);
            }
        }
    }
}
