//! The `OMP_*` environment-variable combinations of Table 1.

use std::fmt;

/// The value given to `OMP_NUM_THREADS`, relative to the node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThreadCount {
    /// `OMP_NUM_THREADS=1`.
    One,
    /// One thread per physical core (`#cores`).
    Cores,
    /// One thread per hardware thread (`#threads`, i.e. cores × SMT).
    HwThreads,
}

/// The value given to `OMP_PROC_BIND`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProcBind {
    /// Variable not set: threads are unbound and may migrate.
    NotSet,
    /// `OMP_PROC_BIND=true`.
    True,
    /// `OMP_PROC_BIND=spread`.
    Spread,
    /// `OMP_PROC_BIND=close`.
    Close,
}

/// The value given to `OMP_PLACES`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Places {
    /// Variable not set.
    NotSet,
    /// `OMP_PLACES=cores`.
    Cores,
    /// `OMP_PLACES=threads`.
    Threads,
}

/// One row of the paper's Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EnvCombo {
    /// `OMP_NUM_THREADS`.
    pub num_threads: ThreadCount,
    /// `OMP_PROC_BIND`.
    pub proc_bind: ProcBind,
    /// `OMP_PLACES`.
    pub places: Places,
}

impl EnvCombo {
    /// The eight combinations of Table 1, in the paper's row order.
    pub fn table1() -> Vec<EnvCombo> {
        use Places as Pl;
        use ProcBind as Pb;
        use ThreadCount as Tc;
        vec![
            EnvCombo {
                num_threads: Tc::One,
                proc_bind: Pb::NotSet,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::One,
                proc_bind: Pb::True,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::Cores,
                proc_bind: Pb::NotSet,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::Cores,
                proc_bind: Pb::True,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::Cores,
                proc_bind: Pb::Spread,
                places: Pl::Cores,
            },
            EnvCombo {
                num_threads: Tc::HwThreads,
                proc_bind: Pb::NotSet,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::HwThreads,
                proc_bind: Pb::True,
                places: Pl::NotSet,
            },
            EnvCombo {
                num_threads: Tc::HwThreads,
                proc_bind: Pb::Close,
                places: Pl::Threads,
            },
        ]
    }

    /// The Table 1 rows for the "all threads" bandwidth column.
    pub fn table1_all() -> Vec<EnvCombo> {
        Self::table1()
            .into_iter()
            .filter(|c| c.num_threads != ThreadCount::One)
            .collect()
    }

    /// True if any binding was requested.
    pub fn is_bound(&self) -> bool {
        self.proc_bind != ProcBind::NotSet
    }
}

impl fmt::Display for EnvCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nt = match self.num_threads {
            ThreadCount::One => "1",
            ThreadCount::Cores => "#cores",
            ThreadCount::HwThreads => "#threads",
        };
        let pb = match self.proc_bind {
            ProcBind::NotSet => "-",
            ProcBind::True => "true",
            ProcBind::Spread => "spread",
            ProcBind::Close => "close",
        };
        let pl = match self.places {
            Places::NotSet => "-",
            Places::Cores => "cores",
            Places::Threads => "threads",
        };
        write!(f, "OMP_NUM_THREADS={nt} OMP_PROC_BIND={pb} OMP_PLACES={pl}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eight_rows_in_order() {
        let rows = EnvCombo::table1();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].num_threads, ThreadCount::One);
        assert_eq!(rows[4].proc_bind, ProcBind::Spread);
        assert_eq!(rows[4].places, Places::Cores);
        assert_eq!(rows[7].proc_bind, ProcBind::Close);
        assert_eq!(rows[7].places, Places::Threads);
    }

    #[test]
    fn single_and_all_partition_table1() {
        let single: Vec<EnvCombo> = EnvCombo::table1()
            .into_iter()
            .filter(|c| c.num_threads == ThreadCount::One)
            .collect();
        let all = EnvCombo::table1_all();
        assert_eq!(single.len(), 2);
        assert_eq!(all.len(), 6);
        assert_eq!(single.len() + all.len(), EnvCombo::table1().len());
        assert!(single.iter().all(|c| c.num_threads == ThreadCount::One));
        assert!(all.iter().all(|c| c.num_threads != ThreadCount::One));
    }

    #[test]
    fn bound_predicate() {
        let rows = EnvCombo::table1();
        assert!(!rows[0].is_bound());
        assert!(rows[1].is_bound());
        assert!(rows[4].is_bound());
    }

    #[test]
    fn display_is_readable() {
        let c = EnvCombo::table1()[4];
        assert_eq!(
            c.to_string(),
            "OMP_NUM_THREADS=#cores OMP_PROC_BIND=spread OMP_PLACES=cores"
        );
    }
}
