//! Tensor element types.

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
}
