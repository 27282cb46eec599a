//! Models of the 13 US DOE systems the paper benchmarks.
//!
//! Every machine carries:
//!
//! * the **node topology** of Figures 1–3 (sockets, NUMA domains, cores,
//!   devices, typed links),
//! * a **host memory model** (Table 4's bandwidth columns),
//! * **GPU cost models** per device (Tables 5–6),
//! * an **MPI implementation model** (Tables 4–5's latency columns), and
//! * the **software environment** of Tables 8–9.
//!
//! Parameters are calibrated against the paper's published means; each
//! constructor's comments derive the constants from the table values, and
//! [`paper`] embeds the reference numbers so calibration tests and the
//! report generator can compare simulated output with the publication.
//!
//! # Example
//!
//! ```
//! let frontier = doe_machines::by_name("Frontier").expect("known machine");
//! assert_eq!(frontier.top500_rank, 1);
//! assert_eq!(frontier.topo.device_count(), 8); // 4 MI250X = 8 GCDs
//! assert!(frontier.topo.uses_infinity_fabric());
//! ```

pub mod amd;
pub mod cpu;
pub mod extensions;
pub mod machine;
pub mod nvidia;
pub mod paper;
pub mod software;
pub mod units;

use std::sync::OnceLock;

pub use machine::{Machine, MachineCategory};
pub use software::SoftwareEnv;

/// The 13 machines, built once per process and ordered by June 2023
/// Top500 rank. The `Vec`-returning lookups below clone from it; [`find`]
/// and the query planner borrow.
pub fn catalog() -> &'static [Machine] {
    static CATALOG: OnceLock<Vec<Machine>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> Vec<Machine> {
    let mut v = vec![
        amd::frontier(),
        nvidia::summit(),
        nvidia::sierra(),
        nvidia::perlmutter(),
        nvidia::polaris(),
        cpu::trinity(),
        nvidia::lassen(),
        cpu::theta(),
        cpu::sawtooth(),
        amd::rzvernal(),
        cpu::eagle(),
        amd::tioga(),
        cpu::manzano(),
    ];
    v.sort_by_key(|m| m.top500_rank);
    v
}

/// All 13 machines, ordered by June 2023 Top500 rank.
pub fn all_machines() -> Vec<Machine> {
    catalog().to_vec()
}

/// The non-accelerator machines (Table 2 / Table 4), by rank.
pub fn cpu_machines() -> Vec<Machine> {
    catalog()
        .iter()
        .filter(|m| m.category == MachineCategory::NonAccelerator)
        .cloned()
        .collect()
}

/// The accelerator machines (Table 3 / Tables 5–6), by rank.
pub fn gpu_machines() -> Vec<Machine> {
    catalog()
        .iter()
        .filter(|m| m.category == MachineCategory::Accelerator)
        .cloned()
        .collect()
}

/// The catalog entry named `name`, compared case-insensitively.
pub fn find(name: &str) -> Option<&'static Machine> {
    catalog().iter().find(|m| m.name.eq_ignore_ascii_case(name))
}

/// Look a machine up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Machine> {
    find(name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_thirteen_machines() {
        assert_eq!(all_machines().len(), 13);
        assert_eq!(cpu_machines().len(), 5);
        assert_eq!(gpu_machines().len(), 8);
    }

    #[test]
    fn machines_are_ordered_by_rank() {
        let ranks: Vec<u32> = all_machines().iter().map(|m| m.top500_rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
        assert_eq!(ranks[0], 1); // Frontier
        assert_eq!(*ranks.last().unwrap(), 141); // Manzano
    }

    #[test]
    fn every_topology_is_valid() {
        for m in all_machines() {
            m.topo
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid topology: {e}", m.name));
        }
    }

    #[test]
    fn every_mpi_config_is_valid() {
        for m in all_machines() {
            m.mpi
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid MPI config: {e}", m.name));
        }
    }

    #[test]
    fn every_gpu_model_is_valid() {
        for m in gpu_machines() {
            for g in &m.gpu_models {
                g.validate()
                    .unwrap_or_else(|e| panic!("{}: invalid GPU model: {e}", m.name));
            }
        }
        for m in crate::extensions::extension_machines() {
            for g in &m.gpu_models {
                g.validate().expect("extension GPU model valid");
            }
        }
    }

    #[test]
    fn gpu_machines_have_models_per_device() {
        for m in gpu_machines() {
            assert_eq!(
                m.gpu_models.len(),
                m.topo.device_count(),
                "{}: model/device count mismatch",
                m.name
            );
            assert!(m.topo.device_count() > 0);
        }
    }

    #[test]
    fn cpu_machines_have_no_devices() {
        for m in cpu_machines() {
            assert_eq!(m.topo.device_count(), 0, "{}", m.name);
            assert!(m.gpu_models.is_empty());
        }
    }

    #[test]
    fn catalog_matches_a_fresh_construction() {
        let fresh = build_catalog();
        assert_eq!(catalog().len(), fresh.len());
        for (c, f) in catalog().iter().zip(&fresh) {
            assert_eq!(format!("{c:?}"), format!("{f:?}"), "{}", f.name);
        }
    }

    #[test]
    fn per_machine_rng_streams_keep_their_concatenated_label_keys() {
        use doe_simtime::SimRng;
        // The derivation the runtimes used when they formatted the whole
        // label: FNV-1a 64 of the string, mixed with the index and seed.
        fn concatenated(seed: u64, label: &str, index: u64) -> SimRng {
            let h = label.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            let key = h ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            SimRng::from_seed(seed ^ key.rotate_left(17))
        }
        let names = catalog()
            .iter()
            .flat_map(|m| [m.name, m.topo.name.as_str()]);
        for name in names {
            for prefix in ["mpi/", "gpurt/", "babelstream-cpu/"] {
                for (seed, index) in [(0, 0), (1, 7), (u64::MAX, 99)] {
                    let mut parts = SimRng::stream(seed, &[prefix, name], index);
                    let mut whole = concatenated(seed, &format!("{prefix}{name}"), index);
                    for _ in 0..4 {
                        assert_eq!(parts.next_u64(), whole.next_u64(), "{prefix}{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("frontier").is_some());
        assert!(by_name("FRONTIER").is_some());
        assert!(by_name("Perlmutter").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn mi250x_machines_expose_all_four_classes() {
        for name in ["Frontier", "RZVernal", "Tioga"] {
            let m = by_name(name).expect("exists");
            let classes = m.topo.present_classes();
            assert_eq!(classes.len(), 4, "{name}: classes {classes:?}");
        }
    }

    #[test]
    fn nvlink_machines_expose_expected_classes() {
        for name in ["Summit", "Sierra", "Lassen"] {
            let m = by_name(name).expect("exists");
            assert_eq!(m.topo.present_classes().len(), 2, "{name}");
        }
        for name in ["Perlmutter", "Polaris"] {
            let m = by_name(name).expect("exists");
            assert_eq!(m.topo.present_classes().len(), 1, "{name}");
        }
    }

    #[test]
    fn core_counts_match_the_hardware() {
        assert_eq!(by_name("Trinity").unwrap().topo.core_count(), 68);
        assert_eq!(by_name("Theta").unwrap().topo.core_count(), 64);
        assert_eq!(by_name("Sawtooth").unwrap().topo.core_count(), 48);
        assert_eq!(by_name("Eagle").unwrap().topo.core_count(), 36);
        assert_eq!(by_name("Manzano").unwrap().topo.core_count(), 48);
    }

    #[test]
    fn summit_has_six_gpus_sierra_and_lassen_four() {
        assert_eq!(by_name("Summit").unwrap().topo.device_count(), 6);
        assert_eq!(by_name("Sierra").unwrap().topo.device_count(), 4);
        assert_eq!(by_name("Lassen").unwrap().topo.device_count(), 4);
        assert_eq!(by_name("Perlmutter").unwrap().topo.device_count(), 4);
        assert_eq!(by_name("Polaris").unwrap().topo.device_count(), 4);
    }
}
