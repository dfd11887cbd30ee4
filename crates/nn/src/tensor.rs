//! Tensor shapes and element types.

use std::fmt;

use dscs_simcore::quantity::Bytes;

/// Element data type. The DSA executes GEMMs in 8-bit integer arithmetic with
/// 32-bit accumulation (as in the paper's PE microarchitecture) and supports
/// fp16/fp32 for vector operations and type-casting layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 8-bit integer (quantized weights/activations).
    Int8,
    /// 16-bit floating point.
    Fp16,
    /// 32-bit floating point.
    Fp32,
    /// 32-bit integer (accumulators, indices).
    Int32,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DType::Int8 => 1,
            DType::Fp16 => 2,
            DType::Fp32 | DType::Int32 => 4,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Int8 => "int8",
            DType::Fp16 => "fp16",
            DType::Fp32 => "fp32",
            DType::Int32 => "int32",
        };
        f.write_str(s)
    }
}

/// A tensor shape: a list of dimension sizes, outermost first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<u64>);

impl Shape {
    /// Creates a shape from dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the shape is empty.
    pub fn new(dims: impl Into<Vec<u64>>) -> Self {
        let dims = dims.into();
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape dimensions must be positive"
        );
        Shape(dims)
    }

    /// A 1-D shape.
    pub fn vector(n: u64) -> Self {
        Shape::new(vec![n])
    }

    /// A 2-D (rows x cols) shape.
    pub fn matrix(rows: u64, cols: u64) -> Self {
        Shape::new(vec![rows, cols])
    }

    /// An NCHW image-batch shape.
    pub fn nchw(n: u64, c: u64, h: u64, w: u64) -> Self {
        Shape::new(vec![n, c, h, w])
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> u64 {
        self.0.iter().product()
    }

    /// Returns a copy with the outermost (batch) dimension replaced.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn with_batch(&self, batch: u64) -> Shape {
        assert!(batch > 0, "batch must be positive");
        let mut dims = self.0.clone();
        dims[0] = batch;
        Shape(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "[{}]", parts.join("x"))
    }
}

/// A tensor specification: shape plus element type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorSpec {
    /// Tensor shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
}

impl TensorSpec {
    /// Creates a tensor specification.
    pub fn new(shape: Shape, dtype: DType) -> Self {
        TensorSpec { shape, dtype }
    }

    /// Total number of elements.
    pub fn numel(&self) -> u64 {
        self.shape.numel()
    }

    /// Total size in bytes.
    pub fn size(&self) -> Bytes {
        Bytes::new(self.numel() * self.dtype.size_bytes())
    }
}

impl fmt::Display for TensorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.shape, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::Int8.size_bytes(), 1);
        assert_eq!(DType::Fp16.size_bytes(), 2);
        assert_eq!(DType::Fp32.size_bytes(), 4);
        assert_eq!(DType::Int32.size_bytes(), 4);
    }

    #[test]
    fn shape_numel_and_bytes() {
        let t = TensorSpec::new(Shape::nchw(1, 3, 224, 224), DType::Fp32);
        assert_eq!(t.numel(), 3 * 224 * 224);
        assert_eq!(t.size().as_u64(), 3 * 224 * 224 * 4);
    }

    #[test]
    fn with_batch_replaces_outer_dim() {
        let s = Shape::nchw(1, 3, 224, 224).with_batch(8);
        assert_eq!(s.dims()[0], 8);
        assert_eq!(s.numel(), 8 * 3 * 224 * 224);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Shape::matrix(2, 3)), "[2x3]");
        assert_eq!(
            format!("{}", TensorSpec::new(Shape::vector(4), DType::Int8)),
            "[4]:int8"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Shape::new(vec![1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_shape_rejected() {
        let _ = Shape::new(Vec::<u64>::new());
    }
}
