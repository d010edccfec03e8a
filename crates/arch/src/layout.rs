//! On-chip data layout representation.
//!
//! The paper (Fig. 3) writes a layout as
//! `"(inter-line dimension order)_(intra-line dimension order interleaved with sizes)"`,
//! e.g. `CHW_W4H2C2`:
//!
//! * the **intra-line** part `W4H2C2` says each buffer line holds a
//!   `4 × 2 × 2` tile of the `(W, H, C)` dimensions, flattened with `W`
//!   varying slowest and `C` fastest within the line;
//! * the **inter-line** part `CHW` says the tiles are laid out across lines
//!   with `C` as the slowest-varying (outermost) and `W` as the
//!   fastest-varying (innermost) inter-line dimension.
//!
//! [`Layout`] parses/prints this notation and maps logical tensor coordinates
//! to `(line, offset)` locations, which is everything the bank-conflict model
//! and the functional buffer simulator need.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::dims::Dim;
use crate::error::ArchError;

/// One intra-line dimension with the number of consecutive elements of that
/// dimension packed into a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntraDim {
    /// The packed dimension.
    pub dim: Dim,
    /// How many elements of `dim` are packed contiguously into one line.
    pub size: usize,
}

impl IntraDim {
    /// Creates a new intra-line packing entry.
    pub fn new(dim: Dim, size: usize) -> Self {
        IntraDim { dim, size }
    }
}

/// A physical on-chip data layout: inter-line dimension order plus intra-line
/// packing.
///
/// # Example
/// ```
/// use feather_arch::layout::Layout;
/// use feather_arch::dims::Dim;
///
/// let layout: Layout = "CHW_W4H2C2".parse().unwrap();
/// assert_eq!(layout.line_size(), 16);
/// assert_eq!(layout.to_string(), "CHW_W4H2C2");
/// assert_eq!(layout.intra_size(Dim::W), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    /// Inter-line dimension order, outermost (slowest varying across lines) first.
    pub interline: Vec<Dim>,
    /// Intra-line packing, outermost (slowest within the line) first.
    pub intraline: Vec<IntraDim>,
}

impl Layout {
    /// Creates a layout from explicit parts.
    pub fn new(
        interline: impl IntoIterator<Item = Dim>,
        intraline: impl IntoIterator<Item = (Dim, usize)>,
    ) -> Self {
        Layout {
            interline: interline.into_iter().collect(),
            intraline: intraline
                .into_iter()
                .map(|(dim, size)| IntraDim::new(dim, size))
                .collect(),
        }
    }

    /// Validates that intra-line sizes are non-zero, that their product (the
    /// line size) fits a `usize`, and that no dimension appears twice on
    /// either side.
    ///
    /// # Errors
    /// Returns [`ArchError::ParseLayout`] describing the problem.
    pub fn validate(&self) -> Result<(), ArchError> {
        let mut seen = BTreeSet::new();
        for entry in &self.intraline {
            if entry.size == 0 {
                return Err(ArchError::ParseLayout {
                    input: self.to_string(),
                    reason: format!("intra-line size for {} is zero", entry.dim),
                });
            }
            if !seen.insert(entry.dim) {
                return Err(ArchError::ParseLayout {
                    input: self.to_string(),
                    reason: format!("dimension {} appears twice intra-line", entry.dim),
                });
            }
        }
        let line_size = self
            .intraline
            .iter()
            .try_fold(1usize, |product, entry| product.checked_mul(entry.size));
        if line_size.is_none() {
            return Err(ArchError::ParseLayout {
                input: self.to_string(),
                reason: "intra-line line size overflows".to_string(),
            });
        }
        let mut seen_inter = BTreeSet::new();
        for dim in &self.interline {
            if !seen_inter.insert(*dim) {
                return Err(ArchError::ParseLayout {
                    input: self.to_string(),
                    reason: format!("dimension {dim} appears twice inter-line"),
                });
            }
        }
        Ok(())
    }

    /// Number of elements stored in one buffer line.
    pub fn line_size(&self) -> usize {
        self.intraline
            .iter()
            .map(|e| e.size)
            .product::<usize>()
            .max(1)
    }

    /// Number of elements of `dim` packed into one line (1 if `dim` is not an
    /// intra-line dimension).
    pub fn intra_size(&self, dim: Dim) -> usize {
        self.intraline
            .iter()
            .find(|e| e.dim == dim)
            .map(|e| e.size)
            .unwrap_or(1)
    }

    /// Maps a logical coordinate to its `(line, offset)` location given the
    /// per-dimension extents of the stored tensor.
    ///
    /// Dimensions that appear in neither the intra- nor inter-line lists are
    /// treated as outermost inter-line dimensions in canonical [`Dim`] order,
    /// so every coordinate always has a well-defined home.
    ///
    /// Coordinates for dimensions absent from `coord` default to 0.
    pub fn location(
        &self,
        coord: &BTreeMap<Dim, usize>,
        dim_sizes: &BTreeMap<Dim, usize>,
    ) -> Location {
        // Intra-line offset: iterate the intra dims outermost→innermost and
        // flatten the within-line components.
        let mut offset = 0usize;
        for entry in &self.intraline {
            let v = coord.get(&entry.dim).copied().unwrap_or(0);
            let within = v % entry.size;
            offset = offset * entry.size + within;
        }

        // Inter-line index: explicit inter-line dims (outermost→innermost),
        // preceded by any dims not mentioned anywhere (treated as outermost).
        let mut line = 0usize;
        for dim in self.implicit_outer_dims(dim_sizes) {
            let extent = self.inter_extent(dim, dim_sizes);
            let v = coord.get(&dim).copied().unwrap_or(0) / self.intra_size(dim);
            line = line * extent + v.min(extent.saturating_sub(1));
        }
        for &dim in &self.interline {
            let extent = self.inter_extent(dim, dim_sizes);
            let v = coord.get(&dim).copied().unwrap_or(0) / self.intra_size(dim);
            line = line * extent + v.min(extent.saturating_sub(1));
        }
        Location { line, offset }
    }

    /// Total number of lines needed to store a tensor with the given extents.
    pub fn total_lines(&self, dim_sizes: &BTreeMap<Dim, usize>) -> usize {
        let mut lines = 1usize;
        for dim in self.implicit_outer_dims(dim_sizes) {
            lines *= self.inter_extent(dim, dim_sizes);
        }
        for &dim in &self.interline {
            lines *= self.inter_extent(dim, dim_sizes);
        }
        lines
    }

    /// The dimensions that are present in the tensor but not named by this
    /// layout; they become implicit outermost inter-line dimensions.
    fn implicit_outer_dims(&self, dim_sizes: &BTreeMap<Dim, usize>) -> Vec<Dim> {
        dim_sizes
            .iter()
            .filter(|(d, &size)| {
                size > 1 && !self.interline.contains(d) && self.intra_size(**d) == 1
            })
            .map(|(d, _)| *d)
            .collect()
    }

    /// Number of distinct inter-line index values dimension `dim` produces.
    fn inter_extent(&self, dim: Dim, dim_sizes: &BTreeMap<Dim, usize>) -> usize {
        let total = dim_sizes.get(&dim).copied().unwrap_or(1);
        total.div_ceil(self.intra_size(dim)).max(1)
    }

    /// Set of distinct lines touched by a group of coordinates accessed in the
    /// same cycle. This is the quantity the bank-conflict model compares with
    /// the number of ports.
    pub fn lines_touched<'a>(
        &self,
        coords: impl IntoIterator<Item = &'a BTreeMap<Dim, usize>>,
        dim_sizes: &BTreeMap<Dim, usize>,
    ) -> BTreeSet<usize> {
        coords
            .into_iter()
            .map(|c| self.location(c, dim_sizes).line)
            .collect()
    }

    // ------------------------------------------------------------------
    // The layout vocabulary used by the paper's evaluation (§VI-A.2).
    // ------------------------------------------------------------------

    /// The seven convolution-layout candidates searched in the paper:
    /// `HWC_C32`, `HWC_W32`, `HWC_H32`, `HWC_C4W8`, `HWC_C4H8`, `HWC_W4H8`,
    /// `HWC_C4W4H2`.
    pub fn conv_candidates() -> Vec<Layout> {
        [
            "HWC_C32",
            "HWC_W32",
            "HWC_H32",
            "HWC_C4W8",
            "HWC_C4H8",
            "HWC_W4H8",
            "HWC_C4W4H2",
        ]
        .iter()
        .map(|s| s.parse().expect("built-in layout strings are valid"))
        .collect()
    }

    /// The GEMM-layout candidates searched in the paper: `MK_K32`, `MK_M32`,
    /// `MK_M4K8` (input/weight matrix layouts).
    pub fn gemm_candidates() -> Vec<Layout> {
        ["MK_K32", "MK_M32", "MK_M4K8"]
            .iter()
            .map(|s| s.parse().expect("built-in layout strings are valid"))
            .collect()
    }

    /// Returns a copy of the layout with every dimension replaced by
    /// `f(dim)`, preserving order and intra-line sizes.
    ///
    /// This is how a layout is moved between tensor vocabularies: the same
    /// physical arrangement, described over different logical dimensions.
    pub fn rename_dims(&self, f: impl Fn(Dim) -> Dim) -> Layout {
        Layout {
            interline: self.interline.iter().map(|&d| f(d)).collect(),
            intraline: self
                .intraline
                .iter()
                .map(|e| IntraDim::new(f(e.dim), e.size))
                .collect(),
        }
    }

    /// Translates an iAct-vocabulary layout (`C`, `H`, `W`) into the
    /// oAct-vocabulary layout (`M`, `P`, `Q`) the *previous* layer must write
    /// so that this layer finds its inputs already arranged this way: the
    /// producer's output channels `M` are the consumer's input channels `C`,
    /// and the output pixels `P`/`Q` are the consumer's `H`/`W`.
    ///
    /// This is the layout RIR targets at a pipeline boundary (§III-C).
    pub fn as_producer_oact_layout(&self) -> Layout {
        self.rename_dims(|d| match d {
            Dim::C => Dim::M,
            Dim::H => Dim::P,
            Dim::W => Dim::Q,
            other => other,
        })
    }

    /// Row-major layout with `w_per_line` width elements per line.
    pub fn row_major(w_per_line: usize) -> Layout {
        Layout::new([Dim::H, Dim::C, Dim::W], [(Dim::W, w_per_line)])
    }

    /// Precompiles this layout over a fixed 4-dimension coordinate order into
    /// per-dimension lookup tables ([`LocationPlan4`]), so hot loops can map
    /// coordinates to `(line, offset)` locations with four table lookups and
    /// three adds instead of re-walking the layout structure (and building a
    /// `BTreeMap` coordinate) per element.
    ///
    /// Exactness: [`Layout::location`] is *separable* — both the intra-line
    /// offset and the inter-line index are mixed-radix sums with one summand
    /// per dimension and no cross terms (each dimension appears at most once
    /// intra-line and once in the line computation, enforced by
    /// [`Layout::validate`]). The plan therefore tabulates each dimension's
    /// summand — `location` at a single-coordinate point — and summing the
    /// four summands reproduces `location` bit-for-bit (the all-zero
    /// coordinate maps to `(0, 0)`).
    ///
    /// `order` lists the four dimensions with their extents (e.g.
    /// `[(Dim::N, n), (Dim::C, c), (Dim::H, h), (Dim::W, w)]` for iActs);
    /// the extents play the role of `dim_sizes` in [`Layout::location`].
    pub fn plan4(&self, order: [(Dim, usize); 4]) -> LocationPlan4 {
        let dim_sizes: BTreeMap<Dim, usize> = order.iter().copied().collect();
        // The digits of `location`'s line index, outermost first, with their
        // extents: a dimension's summand is its digit times the product of
        // the extents inside it, and likewise for the intra-line offset.
        let line_digits: Vec<(Dim, usize)> = self
            .implicit_outer_dims(&dim_sizes)
            .into_iter()
            .chain(self.interline.iter().copied())
            .map(|dim| (dim, self.inter_extent(dim, &dim_sizes)))
            .collect();
        let tables = order.map(|(dim, extent)| {
            let intra = self.intra_size(dim);
            let line = line_digits.iter().position(|&(d, _)| d == dim).map(|i| {
                let inner: usize = line_digits[i + 1..].iter().map(|&(_, e)| e).product();
                (line_digits[i].1 - 1, inner)
            });
            let offset = self.intraline.iter().position(|e| e.dim == dim).map(|i| {
                self.intraline[i + 1..]
                    .iter()
                    .map(|e| e.size)
                    .product::<usize>()
            });
            (0..extent.max(1))
                .map(|v| Location {
                    line: line.map_or(0, |(last, inner)| (v / intra).min(last) * inner),
                    offset: offset.map_or(0, |inner| v % intra * inner),
                })
                .collect::<Vec<Location>>()
        });
        LocationPlan4 { tables }
    }
}

/// A [`Layout`] precompiled over a fixed 4-dimension coordinate order — see
/// [`Layout::plan4`]. This is the hot-loop addressing primitive of the
/// functional executor: coordinate-to-location mapping as pure index
/// arithmetic, no maps, no allocation.
#[derive(Debug, Clone)]
pub struct LocationPlan4 {
    /// Per dimension (in plan order), the `(line, offset)` summand each
    /// coordinate value contributes.
    tables: [Vec<Location>; 4],
}

impl LocationPlan4 {
    /// Location of the coordinate `values`, given in the plan's dimension
    /// order.
    ///
    /// # Panics
    /// Panics if a coordinate value is out of the extent declared to
    /// [`Layout::plan4`].
    #[inline]
    pub fn location(&self, values: [usize; 4]) -> Location {
        let a = self.tables[0][values[0]];
        let b = self.tables[1][values[1]];
        let c = self.tables[2][values[2]];
        let d = self.tables[3][values[3]];
        Location {
            line: a.line + b.line + c.line + d.line,
            offset: a.offset + b.offset + c.offset + d.offset,
        }
    }

    /// The `(line, offset)` summand that value `value` of the plan's
    /// dimension `dim` (its position in the plan order) adds to every
    /// location: [`LocationPlan4::location`] is the component-wise sum of
    /// one summand per dimension, so two coordinates that differ in one
    /// dimension differ by the difference of its two summands.
    ///
    /// # Panics
    /// Panics if `dim > 3` or `value` is out of the dimension's extent.
    #[inline]
    pub fn summand(&self, dim: usize, value: usize) -> Location {
        self.tables[dim][value]
    }
}

/// A physical location inside a logical 2D buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Buffer line (row) index.
    pub line: usize,
    /// Offset of the element within the line.
    pub offset: usize,
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for dim in &self.interline {
            write!(f, "{dim}")?;
        }
        write!(f, "_")?;
        for entry in &self.intraline {
            write!(f, "{}{}", entry.dim, entry.size)?;
        }
        Ok(())
    }
}

impl FromStr for Layout {
    type Err = ArchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (inter_str, intra_str) = s.split_once('_').ok_or_else(|| ArchError::ParseLayout {
            input: s.to_string(),
            reason: "expected `INTER_INTRA` with one underscore".to_string(),
        })?;

        let mut interline = Vec::new();
        for c in inter_str.chars() {
            interline.push(Dim::from_letter(c).map_err(|_| ArchError::ParseLayout {
                input: s.to_string(),
                reason: format!("unknown inter-line dimension `{c}`"),
            })?);
        }

        let mut intraline = Vec::new();
        let mut chars = intra_str.chars().peekable();
        while let Some(c) = chars.next() {
            let dim = Dim::from_letter(c).map_err(|_| ArchError::ParseLayout {
                input: s.to_string(),
                reason: format!("unknown intra-line dimension `{c}`"),
            })?;
            let mut digits = String::new();
            while let Some(d) = chars.peek() {
                if d.is_ascii_digit() {
                    digits.push(*d);
                    chars.next();
                } else {
                    break;
                }
            }
            if digits.is_empty() {
                return Err(ArchError::ParseLayout {
                    input: s.to_string(),
                    reason: format!("intra-line dimension {dim} has no size"),
                });
            }
            let size: usize = digits.parse().map_err(|_| ArchError::ParseLayout {
                input: s.to_string(),
                reason: format!("intra-line size `{digits}` is not a number"),
            })?;
            intraline.push((dim, size));
        }
        if intraline.is_empty() {
            return Err(ArchError::ParseLayout {
                input: s.to_string(),
                reason: "intra-line part is empty".to_string(),
            });
        }

        let layout = Layout::new(interline, intraline);
        layout.validate()?;
        Ok(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(pairs: &[(Dim, usize)]) -> BTreeMap<Dim, usize> {
        pairs.iter().copied().collect()
    }

    fn sizes(pairs: &[(Dim, usize)]) -> BTreeMap<Dim, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn parse_roundtrip_paper_layouts() {
        for s in [
            "CHW_W4H2C2",
            "HWC_C32",
            "HWC_W32",
            "HWC_H32",
            "HWC_C4W8",
            "HWC_C4H8",
            "HWC_W4H8",
            "HWC_C4W4H2",
            "HWC_W2C3",
            "HCW_W8",
        ] {
            let layout: Layout = s.parse().unwrap();
            assert_eq!(layout.to_string(), s, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn gemm_layouts_canonicalize_k_to_c() {
        // `K` in the paper's GEMM layout strings is the contraction dimension,
        // which our vocabulary stores as `C`.
        for (input, canonical) in [
            ("MK_K32", "MC_C32"),
            ("MK_M32", "MC_M32"),
            ("MK_M4K8", "MC_M4C8"),
        ] {
            let layout: Layout = input.parse().unwrap();
            assert_eq!(layout.to_string(), canonical);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("CHW".parse::<Layout>().is_err()); // no underscore
        assert!("CHW_W".parse::<Layout>().is_err()); // missing size
        assert!("CHW_".parse::<Layout>().is_err()); // empty intra
        assert!("CZW_W4".parse::<Layout>().is_err()); // bad dim letter
        assert!("CHW_W4W2".parse::<Layout>().is_err()); // duplicate intra dim
        assert!("CHWC_W4".parse::<Layout>().is_err()); // duplicate inter dim
        assert!("CHW_W0".parse::<Layout>().is_err()); // zero size
        let err = "HWC_C4294967296W4294967296H4294967296"
            .parse::<Layout>()
            .unwrap_err();
        assert!(err.to_string().contains("line size overflows"), "{err}");
    }

    /// Dimension letters a layout string may hold (`K` is `C`'s GEMM alias;
    /// lower case is accepted too).
    const LETTERS: [&str; 12] = ["N", "M", "C", "K", "P", "Q", "R", "S", "H", "W", "k", "w"];
    /// Bytes a layout string may be damaged with: none is a letter or a
    /// digit, and a second `_` is out of place.
    const FOREIGN: [&str; 5] = ["Z", "é", " ", "-", "_"];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(4096))]

        #[test]
        fn parsing_never_panics_and_has_one_canonical_spelling(
            inter in proptest::collection::vec(0usize..LETTERS.len(), 0..4),
            intra in proptest::collection::vec(0usize..LETTERS.len(), 0..4),
            runs in proptest::collection::vec(1usize..=25, 4),
            digits in proptest::collection::vec(0u8..10, 100),
            damage in proptest::collection::vec(0usize..10_000, 0..3),
        ) {
            // `INTER_INTRA` with a digit run after each intra-line letter
            // (leading zeros and `0` included), then `damage` pieces inserted.
            let mut s: String = inter.iter().map(|&l| LETTERS[l]).collect();
            s.push('_');
            for (i, &l) in intra.iter().enumerate() {
                s.push_str(LETTERS[l]);
                s.extend(digits[25 * i..][..runs[i]].iter().map(|&d| char::from(b'0' + d)));
            }
            let mut chars: Vec<char> = s.chars().collect();
            for &d in &damage {
                let at = d / FOREIGN.len() % (chars.len() + 1);
                chars.splice(at..at, FOREIGN[d % FOREIGN.len()].chars());
            }
            let s: String = chars.into_iter().collect();

            if let Ok(layout) = s.parse::<Layout>() {
                let product = layout
                    .intraline
                    .iter()
                    .try_fold(1usize, |p, e| p.checked_mul(e.size));
                proptest::prop_assert_eq!(Some(layout.line_size()), product);
                proptest::prop_assert_eq!(layout.to_string().parse::<Layout>(), Ok(layout));
            }
        }
    }

    #[test]
    fn fig3_example_locations() {
        // Layer size C56 H8 W8, layout CHW_W4H2C2 (Fig. 3).
        let layout: Layout = "CHW_W4H2C2".parse().unwrap();
        let dims = sizes(&[(Dim::C, 56), (Dim::H, 8), (Dim::W, 8)]);
        assert_eq!(layout.line_size(), 16);

        // First line holds W0:3, H0:1, C0:1. Within the line, W is slowest and
        // C is fastest: (W0,H0,C0), (W0,H0,C1), (W0,H1,C0), ...
        let l = layout.location(&coord(&[(Dim::W, 0), (Dim::H, 0), (Dim::C, 0)]), &dims);
        assert_eq!(l, Location { line: 0, offset: 0 });
        let l = layout.location(&coord(&[(Dim::W, 0), (Dim::H, 0), (Dim::C, 1)]), &dims);
        assert_eq!(l, Location { line: 0, offset: 1 });
        let l = layout.location(&coord(&[(Dim::W, 0), (Dim::H, 1), (Dim::C, 0)]), &dims);
        assert_eq!(l, Location { line: 0, offset: 2 });
        let l = layout.location(&coord(&[(Dim::W, 1), (Dim::H, 0), (Dim::C, 0)]), &dims);
        assert_eq!(l, Location { line: 0, offset: 4 });
        let l = layout.location(&coord(&[(Dim::W, 3), (Dim::H, 1), (Dim::C, 1)]), &dims);
        assert_eq!(
            l,
            Location {
                line: 0,
                offset: 15
            }
        );

        // Inter-line order C → H → W (C slowest). The W-tile index varies
        // fastest: coordinate W4 lands in the next line.
        let l = layout.location(&coord(&[(Dim::W, 4), (Dim::H, 0), (Dim::C, 0)]), &dims);
        assert_eq!(l.line, 1);
        // The H-tile index is next: H2 starts a new group of 2 lines.
        let l = layout.location(&coord(&[(Dim::W, 0), (Dim::H, 2), (Dim::C, 0)]), &dims);
        assert_eq!(l.line, 2);
        // And C2 starts a new group of 8 lines (2 W-tiles × 4 H-tiles).
        let l = layout.location(&coord(&[(Dim::W, 0), (Dim::H, 0), (Dim::C, 2)]), &dims);
        assert_eq!(l.line, 8);

        // Total: 28 C-tiles × 4 H-tiles × 2 W-tiles = 224 lines.
        assert_eq!(layout.total_lines(&dims), 224);
    }

    #[test]
    fn channel_last_vs_row_major_conflicts() {
        // Fig. 4: under the channel-parallel dataflow (4 channels read per
        // cycle), the channel-last layout packs C0:3 into one line (no
        // conflict), while the row-major layout spreads them over 4 lines.
        let dims = sizes(&[(Dim::C, 2048), (Dim::H, 7), (Dim::W, 7)]);
        let reads: Vec<BTreeMap<Dim, usize>> = (0..4)
            .map(|c| coord(&[(Dim::H, 0), (Dim::W, 0), (Dim::C, c)]))
            .collect();

        let channel_last: Layout = "HWC_C8".parse().unwrap();
        assert_eq!(channel_last.lines_touched(reads.iter(), &dims).len(), 1);

        let row_major: Layout = "HCW_W8".parse().unwrap();
        assert_eq!(row_major.lines_touched(reads.iter(), &dims).len(), 4);
    }

    #[test]
    fn sliding_window_parallel_conflicts() {
        // Fig. 4 M2/M6: W-parallel reads conflict under the channel-last
        // layout but not under row-major.
        let dims = sizes(&[(Dim::C, 3), (Dim::H, 224), (Dim::W, 224)]);
        // Stride-2 sliding windows: W0, W2, W4, W6.
        let reads: Vec<BTreeMap<Dim, usize>> = (0..4)
            .map(|i| coord(&[(Dim::H, 0), (Dim::W, 2 * i), (Dim::C, 0)]))
            .collect();

        let row_major: Layout = "HCW_W8".parse().unwrap();
        assert_eq!(row_major.lines_touched(reads.iter(), &dims).len(), 1);

        let channel_last: Layout = "HWC_W2C3".parse().unwrap();
        assert_eq!(channel_last.lines_touched(reads.iter(), &dims).len(), 4);
    }

    #[test]
    fn unnamed_dims_become_outer() {
        // Layout only names H, W and C; the batch dimension N>1 must still map
        // somewhere (outermost across lines).
        let layout: Layout = "HWC_C4".parse().unwrap();
        let dims = sizes(&[(Dim::N, 2), (Dim::C, 4), (Dim::H, 2), (Dim::W, 2)]);
        let a = layout.location(
            &coord(&[(Dim::N, 0), (Dim::H, 0), (Dim::W, 0), (Dim::C, 0)]),
            &dims,
        );
        let b = layout.location(
            &coord(&[(Dim::N, 1), (Dim::H, 0), (Dim::W, 0), (Dim::C, 0)]),
            &dims,
        );
        assert_ne!(a.line, b.line);
        assert_eq!(layout.total_lines(&dims), 2 * 2 * 2);
    }

    #[test]
    fn candidate_lists_parse() {
        assert_eq!(Layout::conv_candidates().len(), 7);
        assert_eq!(Layout::gemm_candidates().len(), 3);
        for l in Layout::conv_candidates() {
            l.validate().unwrap();
        }
    }

    #[test]
    fn helper_constructors() {
        assert_eq!(Layout::row_major(8).to_string(), "HCW_W8");
    }

    #[test]
    fn rename_to_oact_vocabulary() {
        // The Fig. 11 boundary: a consumer reading channel-last `HWC_C4`
        // requires its producer to emit `PQM_M4`.
        let iact: Layout = "HWC_C4".parse().unwrap();
        assert_eq!(iact.as_producer_oact_layout().to_string(), "PQM_M4");
        // Renaming preserves intra-line sizes and line geometry.
        let mixed: Layout = "HWC_C4W8".parse().unwrap();
        let oact = mixed.as_producer_oact_layout();
        assert_eq!(oact.to_string(), "PQM_M4Q8");
        assert_eq!(oact.line_size(), mixed.line_size());
    }

    #[test]
    fn renamed_layout_maps_to_same_locations() {
        // A coordinate and its renamed twin land on the same (line, offset):
        // the physical arrangement is vocabulary-independent.
        let iact: Layout = "HWC_C4W2".parse().unwrap();
        let oact = iact.as_producer_oact_layout();
        let idims = sizes(&[(Dim::C, 8), (Dim::H, 4), (Dim::W, 4)]);
        let odims = sizes(&[(Dim::M, 8), (Dim::P, 4), (Dim::Q, 4)]);
        for c in 0..8 {
            for h in 0..4 {
                for w in 0..4 {
                    let a = iact.location(&coord(&[(Dim::C, c), (Dim::H, h), (Dim::W, w)]), &idims);
                    let b = oact.location(&coord(&[(Dim::M, c), (Dim::P, h), (Dim::Q, w)]), &odims);
                    assert_eq!(a, b, "C{c} H{h} W{w}");
                }
            }
        }
        assert_eq!(iact.total_lines(&idims), oact.total_lines(&odims));
    }

    #[test]
    fn plan4_matches_location_exhaustively() {
        // Layouts exercising every structural case: intra-only, inter+intra,
        // a dim both inter- and intra-line, and implicit outer dims (N, and
        // H/W when the layout does not name them).
        for spec in ["HWC_C4", "CHW_W4H2C2", "HWC_C2W2", "MPQ_Q4", "HCW_W4"] {
            let layout: Layout = spec.parse().unwrap();
            let (d0, d1, d2, d3) = if spec == "MPQ_Q4" {
                (Dim::N, Dim::M, Dim::P, Dim::Q)
            } else {
                (Dim::N, Dim::C, Dim::H, Dim::W)
            };
            let order = [(d0, 2), (d1, 8), (d2, 4), (d3, 4)];
            let dim_sizes: BTreeMap<Dim, usize> = order.iter().copied().collect();
            let plan = layout.plan4(order);
            for n in 0..2 {
                for c in 0..8 {
                    for h in 0..4 {
                        for w in 0..4 {
                            let golden = layout.location(
                                &coord(&[(d0, n), (d1, c), (d2, h), (d3, w)]),
                                &dim_sizes,
                            );
                            assert_eq!(
                                plan.location([n, c, h, w]),
                                golden,
                                "{spec} at ({n},{c},{h},{w})"
                            );
                            let summands = [n, c, h, w].into_iter().enumerate();
                            let (line, offset) = summands.fold((0, 0), |(l, o), (dim, v)| {
                                let part = plan.summand(dim, v);
                                (l + part.line, o + part.offset)
                            });
                            assert_eq!(Location { line, offset }, golden, "{spec} summands");
                        }
                    }
                }
            }
        }

        // An order naming `C` twice: `location` sees one extent per
        // dimension (the last), so the first `C` axis runs past it and its
        // inter-line digit clamps to the last line of `C`.
        let layout: Layout = "CHW_C4".parse().unwrap();
        let order = [(Dim::N, 2), (Dim::C, 16), (Dim::H, 3), (Dim::C, 5)];
        let dim_sizes: BTreeMap<Dim, usize> = order.iter().copied().collect();
        let plan = layout.plan4(order);
        for (axis, &(dim, extent)) in order.iter().enumerate() {
            for v in 0..extent {
                let mut point = [0; 4];
                point[axis] = v;
                let golden = layout.location(&coord(&[(dim, v)]), &dim_sizes);
                assert_eq!(plan.location(point), golden, "axis {axis} at {v}");
            }
        }
        assert_eq!(plan.location([0, 15, 0, 0]), plan.location([0, 7, 0, 0]));
    }

    #[test]
    fn distinct_offsets_within_line_are_unique() {
        // All 16 coordinates of one intra-line tile map to 16 distinct offsets.
        let layout: Layout = "CHW_W4H2C2".parse().unwrap();
        let dims = sizes(&[(Dim::C, 4), (Dim::H, 4), (Dim::W, 8)]);
        let mut seen = BTreeSet::new();
        for w in 0..4 {
            for h in 0..2 {
                for c in 0..2 {
                    let l =
                        layout.location(&coord(&[(Dim::W, w), (Dim::H, h), (Dim::C, c)]), &dims);
                    assert_eq!(l.line, 0);
                    assert!(seen.insert(l.offset));
                }
            }
        }
        assert_eq!(seen.len(), 16);
    }
}
