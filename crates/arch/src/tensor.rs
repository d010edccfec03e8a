//! Dense tensors and reference (golden) kernels.
//!
//! The functional simulators (NEST + BIRRD executing a layer) are checked
//! against [`conv2d_reference`] / [`gemm_reference`], which are deliberately
//! simple nested loops over [`Tensor4`] storage.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::ArchError;
use crate::workload::{ConvKind, ConvLayer, GemmLayer};

/// A dense 4-dimensional tensor stored in row-major order over its four
/// logical axes `(d0, d1, d2, d3)`.
///
/// Convolution operands use the conventions:
/// * iActs: `(N, C, H, W)`
/// * weights: `(M, C, R, S)`
/// * oActs: `(N, M, P, Q)`
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor4<T> {
    shape: [usize; 4],
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Creates a zero-initialized tensor of the given shape.
    pub fn zeros(shape: [usize; 4]) -> Self {
        let len = shape.iter().product();
        Tensor4 {
            shape,
            data: vec![T::default(); len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    /// Returns [`ArchError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of the shape.
    pub fn from_vec(shape: [usize; 4], data: Vec<T>) -> Result<Self, ArchError> {
        let expect: usize = shape.iter().product();
        if data.len() != expect {
            return Err(ArchError::ShapeMismatch(format!(
                "expected {expect} elements for shape {shape:?}, got {}",
                data.len()
            )));
        }
        Ok(Tensor4 { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every coordinate, iterated in
    /// row-major order. This is the bulk-copy/repack primitive: lowering a
    /// matrix into the convolution operand shapes, staging a tile, or any
    /// other element-wise rearrangement is one `from_fn` call instead of a
    /// hand-rolled quadruple loop.
    pub fn from_fn(shape: [usize; 4], mut f: impl FnMut(usize, usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.iter().product());
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    for l in 0..shape[3] {
                        data.push(f(i, j, k, l));
                    }
                }
            }
        }
        Tensor4 { shape, data }
    }

    /// Visits every element in row-major order with its coordinate.
    pub fn for_each(&self, mut f: impl FnMut([usize; 4], T)) {
        let mut flat = 0usize;
        for i in 0..self.shape[0] {
            for j in 0..self.shape[1] {
                for k in 0..self.shape[2] {
                    for l in 0..self.shape[3] {
                        f([i, j, k, l], self.data[flat]);
                        flat += 1;
                    }
                }
            }
        }
    }

    /// Reinterprets the tensor under a new shape with the same element count
    /// (row-major order preserved) — e.g. viewing `(N, M, P, Q)` oActs as the
    /// next layer's `(N, C, H, W)` iActs.
    ///
    /// # Errors
    /// Returns [`ArchError::ShapeMismatch`] if the element counts differ.
    pub fn with_shape(self, shape: [usize; 4]) -> Result<Self, ArchError> {
        Tensor4::from_vec(shape, self.data)
    }

    /// The tensor shape.
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage, in the same row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Flat index of a coordinate.
    #[inline]
    fn index(&self, i: usize, j: usize, k: usize, l: usize) -> usize {
        debug_assert!(
            i < self.shape[0] && j < self.shape[1] && k < self.shape[2] && l < self.shape[3]
        );
        ((i * self.shape[1] + j) * self.shape[2] + k) * self.shape[3] + l
    }

    /// Reads one element.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds (debug builds).
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, l: usize) -> T {
        self.data[self.index(i, j, k, l)]
    }

    /// Writes one element.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds (debug builds).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, l: usize, value: T) {
        let idx = self.index(i, j, k, l);
        self.data[idx] = value;
    }
}

impl Tensor4<i8> {
    /// Fills a tensor with reproducible pseudo-random INT8 values in
    /// `[-16, 16)` (small enough that INT32 accumulators never overflow for
    /// the layer sizes we simulate).
    pub fn random(shape: [usize; 4], seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = shape.iter().product();
        let data = (0..len).map(|_| rng.gen_range(-16i8..16i8)).collect();
        Tensor4 { shape, data }
    }
}

/// Reference convolution: direct 7-loop nest, INT8 operands, INT32 accumulation.
///
/// # Errors
/// Returns [`ArchError::ShapeMismatch`] if the operand shapes do not match the
/// layer description.
pub fn conv2d_reference(
    layer: &ConvLayer,
    iacts: &Tensor4<i8>,
    weights: &Tensor4<i8>,
) -> Result<Tensor4<i32>, ArchError> {
    let p = layer.output_height();
    let q = layer.output_width();
    if iacts.shape() != [layer.n, layer.c, layer.h, layer.w] {
        return Err(ArchError::ShapeMismatch(format!(
            "iacts shape {:?} does not match layer {layer}",
            iacts.shape()
        )));
    }
    let expected_weights = match layer.kind {
        ConvKind::Depthwise => [layer.c, 1, layer.r, layer.s],
        _ => [layer.m, layer.c, layer.r, layer.s],
    };
    if weights.shape() != expected_weights {
        return Err(ArchError::ShapeMismatch(format!(
            "weights shape {:?} does not match layer {layer} (expected {expected_weights:?})",
            weights.shape()
        )));
    }

    let mut out = Tensor4::<i32>::zeros([layer.n, layer.m, p, q]);
    for n in 0..layer.n {
        for m in 0..layer.m {
            for op in 0..p {
                for oq in 0..q {
                    let mut acc: i32 = 0;
                    let (c_lo, c_hi) = match layer.kind {
                        ConvKind::Depthwise => (m, m + 1),
                        _ => (0, layer.c),
                    };
                    for c in c_lo..c_hi {
                        for r in 0..layer.r {
                            for s in 0..layer.s {
                                let ih = op * layer.stride + r;
                                let iw = oq * layer.stride + s;
                                // Padding: coordinates inside the halo read zeros.
                                if ih < layer.padding || iw < layer.padding {
                                    continue;
                                }
                                let ih = ih - layer.padding;
                                let iw = iw - layer.padding;
                                if ih >= layer.h || iw >= layer.w {
                                    continue;
                                }
                                let x = iacts.get(n, c, ih, iw) as i32;
                                let wv = match layer.kind {
                                    ConvKind::Depthwise => weights.get(c, 0, r, s) as i32,
                                    _ => weights.get(m, c, r, s) as i32,
                                };
                                acc += x * wv;
                            }
                        }
                    }
                    out.set(n, m, op, oq, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Reference GEMM `O[M][N] = Σ_K A[M][K] · B[K][N]` with INT8 operands and
/// INT32 accumulation. Matrices are stored as `Tensor4` with leading singleton
/// axes: `A = (1, 1, M, K)`, `B = (1, 1, K, N)`, `O = (1, 1, M, N)`.
///
/// # Errors
/// Returns [`ArchError::ShapeMismatch`] if operand shapes disagree with the
/// layer description.
pub fn gemm_reference(
    layer: &GemmLayer,
    a: &Tensor4<i8>,
    b: &Tensor4<i8>,
) -> Result<Tensor4<i32>, ArchError> {
    if a.shape() != [1, 1, layer.m, layer.k] {
        return Err(ArchError::ShapeMismatch(format!(
            "A shape {:?} does not match {layer}",
            a.shape()
        )));
    }
    if b.shape() != [1, 1, layer.k, layer.n] {
        return Err(ArchError::ShapeMismatch(format!(
            "B shape {:?} does not match {layer}",
            b.shape()
        )));
    }
    let mut out = Tensor4::<i32>::zeros([1, 1, layer.m, layer.n]);
    for m in 0..layer.m {
        for n in 0..layer.n {
            let mut acc = 0i32;
            for k in 0..layer.k {
                acc += a.get(0, 0, m, k) as i32 * b.get(0, 0, k, n) as i32;
            }
            out.set(0, 0, m, n, acc);
        }
    }
    Ok(out)
}

/// Quantizes one INT32 accumulator to INT8 with a power-of-two scale and zero
/// point — the element-wise operation of FEATHER's quantization module
/// (§III-C.4), shared by [`quantize_to_i8`] and the pipeline session's
/// boundary requantization. A shift of 31 or more leaves only the sign: the
/// arithmetic shift saturates there instead of wrapping the shift amount.
pub fn quantize_value(v: i32, scale_shift: u32, zero_point: i8) -> i8 {
    let scaled = v >> scale_shift.min(31);
    (scaled + zero_point as i32).clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

/// Element-wise saturating INT8 add — the residual-join operation a graph
/// executor performs on two quantized tensors at a shortcut merge point. The
/// sum saturates at the INT8 boundary exactly like the hardware adder behind
/// the quantization module would. Returns the joined tensor plus the number
/// of elements that clamped (useful for join-quality reporting).
///
/// # Errors
/// Returns [`ArchError::ShapeMismatch`] if the shapes differ.
pub fn saturating_add_i8(
    a: &Tensor4<i8>,
    b: &Tensor4<i8>,
) -> Result<(Tensor4<i8>, u64), ArchError> {
    if a.shape() != b.shape() {
        return Err(ArchError::ShapeMismatch(format!(
            "residual add of mismatched shapes {:?} and {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let mut saturated = 0u64;
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let wide = x as i16 + y as i16;
            let clamped = wide.clamp(i8::MIN as i16, i8::MAX as i16);
            if clamped != wide {
                saturated += 1;
            }
            clamped as i8
        })
        .collect();
    Ok((
        Tensor4 {
            shape: a.shape(),
            data,
        },
        saturated,
    ))
}

/// Quantizes an INT32 accumulator tensor back to INT8 with a power-of-two
/// scale and zero point, mirroring FEATHER's quantization module (§III-C.4).
pub fn quantize_to_i8(acc: &Tensor4<i32>, scale_shift: u32, zero_point: i8) -> Tensor4<i8> {
    let shape = acc.shape();
    let data = acc
        .as_slice()
        .iter()
        .map(|&v| quantize_value(v, scale_shift, zero_point))
        .collect();
    Tensor4 { shape, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_add_clamps_at_the_int8_boundary() {
        let a = Tensor4::from_vec([1, 1, 1, 4], vec![100i8, -100, 127, -128]).unwrap();
        let b = Tensor4::from_vec([1, 1, 1, 4], vec![100i8, -100, -1, 1]).unwrap();
        let (sum, saturated) = saturating_add_i8(&a, &b).unwrap();
        assert_eq!(sum.as_slice(), &[127, -128, 126, -127]);
        assert_eq!(saturated, 2);
        // Exact boundary values do not count as saturated.
        let c = Tensor4::from_vec([1, 1, 1, 4], vec![27i8, -28, 0, 0]).unwrap();
        let (sum, saturated) = saturating_add_i8(&a, &c).unwrap();
        assert_eq!(sum.as_slice(), &[127, -128, 127, -128]);
        assert_eq!(saturated, 0);
        // Shape mismatch is rejected.
        let d = Tensor4::<i8>::zeros([1, 1, 4, 1]);
        assert!(saturating_add_i8(&a, &d).is_err());
    }

    #[test]
    fn tensor_roundtrip_and_bounds() {
        let mut t = Tensor4::<i32>::zeros([2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        t.set(1, 2, 3, 4, 42);
        assert_eq!(t.get(1, 2, 3, 4), 42);
        assert_eq!(t.get(0, 0, 0, 0), 0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor4::from_vec([1, 1, 2, 2], vec![0i8; 4]).is_ok());
        assert!(Tensor4::from_vec([1, 1, 2, 2], vec![0i8; 5]).is_err());
    }

    #[test]
    fn from_fn_and_for_each_agree_on_order() {
        let t = Tensor4::<i32>::from_fn([2, 3, 2, 2], |i, j, k, l| {
            (((i * 3 + j) * 2 + k) * 2 + l) as i32
        });
        // from_fn fills row-major, so the data is 0..len in order.
        assert_eq!(t.as_slice(), (0..24).collect::<Vec<i32>>().as_slice());
        let mut visited = 0i32;
        t.for_each(|[i, j, k, l], v| {
            assert_eq!(v, visited);
            assert_eq!(t.get(i, j, k, l), v);
            visited += 1;
        });
        assert_eq!(visited, 24);
    }

    #[test]
    fn with_shape_reinterprets_row_major() {
        let t = Tensor4::<i8>::random([1, 4, 2, 3], 5);
        let flat = t.as_slice().to_vec();
        let r = t.with_shape([1, 2, 4, 3]).unwrap();
        assert_eq!(r.as_slice(), flat.as_slice());
        assert!(r.with_shape([1, 2, 4, 4]).is_err());
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 copies the input channel.
        let layer = ConvLayer::new(1, 1, 1, 4, 4, 1, 1);
        let iacts = Tensor4::random([1, 1, 4, 4], 7);
        let weights = Tensor4::from_vec([1, 1, 1, 1], vec![1i8]).unwrap();
        let out = conv2d_reference(&layer, &iacts, &weights).unwrap();
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(out.get(0, 0, h, w), iacts.get(0, 0, h, w) as i32);
            }
        }
    }

    #[test]
    fn conv_sums_channels() {
        // 1x1 kernel with all-ones weights sums the channels.
        let layer = ConvLayer::new(1, 1, 3, 2, 2, 1, 1);
        let iacts = Tensor4::random([1, 3, 2, 2], 9);
        let weights = Tensor4::from_vec([1, 3, 1, 1], vec![1i8; 3]).unwrap();
        let out = conv2d_reference(&layer, &iacts, &weights).unwrap();
        for h in 0..2 {
            for w in 0..2 {
                let expect: i32 = (0..3).map(|c| iacts.get(0, c, h, w) as i32).sum();
                assert_eq!(out.get(0, 0, h, w), expect);
            }
        }
    }

    #[test]
    fn conv_respects_stride_and_padding() {
        let layer = ConvLayer::new(1, 1, 1, 4, 4, 3, 3)
            .with_stride(2)
            .with_padding(1);
        let iacts = Tensor4::from_vec([1, 1, 4, 4], vec![1i8; 16]).unwrap();
        let weights = Tensor4::from_vec([1, 1, 3, 3], vec![1i8; 9]).unwrap();
        let out = conv2d_reference(&layer, &iacts, &weights).unwrap();
        assert_eq!(out.shape(), [1, 1, 2, 2]);
        // Top-left output sits on the padded corner: only a 2x2 patch is valid.
        assert_eq!(out.get(0, 0, 0, 0), 4);
        // The (1,1) output window is fully inside: 3x3 patch.
        assert_eq!(out.get(0, 0, 1, 1), 9);
    }

    #[test]
    fn depthwise_conv_uses_per_channel_filters() {
        let layer = ConvLayer::new(1, 2, 2, 3, 3, 1, 1).depthwise();
        let iacts = Tensor4::random([1, 2, 3, 3], 11);
        let weights = Tensor4::from_vec([2, 1, 1, 1], vec![2i8, 3i8]).unwrap();
        let out = conv2d_reference(&layer, &iacts, &weights).unwrap();
        assert_eq!(out.get(0, 0, 1, 1), iacts.get(0, 0, 1, 1) as i32 * 2);
        assert_eq!(out.get(0, 1, 1, 1), iacts.get(0, 1, 1, 1) as i32 * 3);
    }

    #[test]
    fn conv_shape_mismatch_rejected() {
        let layer = ConvLayer::new(1, 1, 1, 4, 4, 1, 1);
        let bad_iacts = Tensor4::random([1, 2, 4, 4], 0);
        let weights = Tensor4::from_vec([1, 1, 1, 1], vec![1i8]).unwrap();
        assert!(conv2d_reference(&layer, &bad_iacts, &weights).is_err());
    }

    #[test]
    #[allow(clippy::identity_op)] // 1 * 7 keeps the dot products legible
    fn gemm_matches_manual_small_case() {
        let layer = GemmLayer::new(2, 3, 2);
        let a = Tensor4::from_vec([1, 1, 2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = Tensor4::from_vec([1, 1, 3, 2], vec![7, 8, 9, 10, 11, 12]).unwrap();
        let out = gemm_reference(&layer, &a, &b).unwrap();
        assert_eq!(out.get(0, 0, 0, 0), 1 * 7 + 2 * 9 + 3 * 11);
        assert_eq!(out.get(0, 0, 1, 1), 4 * 8 + 5 * 10 + 6 * 12);
    }

    #[test]
    fn gemm_shape_mismatch_rejected() {
        let layer = GemmLayer::new(2, 3, 2);
        let a = Tensor4::random([1, 1, 2, 4], 0);
        let b = Tensor4::random([1, 1, 3, 2], 0);
        assert!(gemm_reference(&layer, &a, &b).is_err());
    }

    #[test]
    fn quantization_clamps() {
        let acc = Tensor4::from_vec([1, 1, 1, 3], vec![1024, -4096, 8]).unwrap();
        let q = quantize_to_i8(&acc, 4, 0);
        assert_eq!(q.get(0, 0, 0, 0), 64);
        assert_eq!(q.get(0, 0, 0, 1), -128);
        assert_eq!(q.get(0, 0, 0, 2), 0);
        // Shifts of 32 and more are sign fill, not a shift by `s mod 32`.
        for shift in [32, 33, 40] {
            assert_eq!(quantize_value(1000, shift, 0), 0, "shift {shift}");
        }
        assert_eq!(quantize_value(-1000, 40, 0), -1);
    }

    #[test]
    fn random_tensor_is_deterministic() {
        let a = Tensor4::<i8>::random([1, 2, 3, 4], 99);
        let b = Tensor4::<i8>::random([1, 2, 3, 4], 99);
        assert_eq!(a, b);
        let c = Tensor4::<i8>::random([1, 2, 3, 4], 100);
        assert_ne!(a, c);
    }
}
