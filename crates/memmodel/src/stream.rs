//! The five BabelStream kernels and their traffic accounting.
//!
//! BabelStream 4.0 computes bandwidth as `bytes / time` where `bytes` counts
//! only the *algorithmic* traffic — "BabelStream 4.0 does not account for
//! any write-allocate traffic; the bandwidth numerator is twice the
//! allocation size for copy, mul, and dot, and three times the allocation
//! size for add and triad" (§3.1 of the paper). We reproduce exactly that
//! numerator, and separately expose the *actual* traffic (with
//! write-allocate) so `examples/ablations.rs` can quantify the difference.

use std::fmt;

/// A BabelStream kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StreamOp {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = scalar * c[i]`
    Mul,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + scalar * c[i]`
    Triad,
    /// `sum += a[i] * b[i]`
    Dot,
}

impl StreamOp {
    /// All kernels in BabelStream's execution order.
    pub const ALL: [StreamOp; 5] = [
        StreamOp::Copy,
        StreamOp::Mul,
        StreamOp::Add,
        StreamOp::Triad,
        StreamOp::Dot,
    ];

    /// Number of arrays touched per element in the *reported* numerator
    /// (BabelStream 4.0 convention, no write-allocate).
    pub fn reported_arrays(self) -> u64 {
        match self {
            StreamOp::Copy | StreamOp::Mul | StreamOp::Dot => 2,
            StreamOp::Add | StreamOp::Triad => 3,
        }
    }

    /// Number of arrays actually streamed through the memory system when
    /// stores write-allocate (each stored line is first read).
    pub fn actual_arrays(self) -> u64 {
        match self {
            StreamOp::Copy | StreamOp::Mul => 3, // 1 load + 1 store (+1 WA read)
            StreamOp::Add | StreamOp::Triad => 4, // 2 loads + 1 store (+1 WA read)
            StreamOp::Dot => 2,                  // loads only, no store
        }
    }

    /// Reported bytes moved for vectors of `n` `f64` elements.
    pub fn reported_bytes(self, n: u64) -> u64 {
        self.reported_arrays() * 8 * n
    }

    /// This kernel's position in [`StreamOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            StreamOp::Copy => 0,
            StreamOp::Mul => 1,
            StreamOp::Add => 2,
            StreamOp::Triad => 3,
            StreamOp::Dot => 4,
        }
    }

    /// The kernel name as BabelStream prints it.
    pub fn name(self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Mul => "Mul",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
            StreamOp::Dot => "Dot",
        }
    }

    /// True for the reduction kernel (different vectorization behaviour).
    pub fn is_reduction(self) -> bool {
        matches!(self, StreamOp::Dot)
    }
}

impl fmt::Display for StreamOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_bytes_match_babelstream_convention() {
        let n = 1_000_000;
        assert_eq!(StreamOp::Copy.reported_bytes(n), 2 * 8 * n);
        assert_eq!(StreamOp::Mul.reported_bytes(n), 2 * 8 * n);
        assert_eq!(StreamOp::Add.reported_bytes(n), 3 * 8 * n);
        assert_eq!(StreamOp::Triad.reported_bytes(n), 3 * 8 * n);
        assert_eq!(StreamOp::Dot.reported_bytes(n), 2 * 8 * n);
    }

    #[test]
    fn actual_traffic_includes_write_allocate() {
        // Stores add one extra read stream; dot has no store at all.
        assert_eq!(StreamOp::Copy.actual_arrays(), 3);
        assert_eq!(StreamOp::Triad.actual_arrays(), 4);
        assert_eq!(StreamOp::Dot.actual_arrays(), 2);
    }

    #[test]
    fn names_and_order() {
        let names: Vec<_> = StreamOp::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["Copy", "Mul", "Add", "Triad", "Dot"]);
        assert_eq!(StreamOp::Triad.to_string(), "Triad");
    }

    #[test]
    fn only_dot_is_reduction() {
        assert!(StreamOp::Dot.is_reduction());
        assert!(StreamOp::ALL
            .iter()
            .filter(|o| o.is_reduction())
            .eq([&StreamOp::Dot]));
    }
}
