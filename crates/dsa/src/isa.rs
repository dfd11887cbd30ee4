//! The tile-level instruction set targeted by the compiler.
//!
//! The compiler (in `dscs-compiler`) lowers a model graph into a sequence of
//! tile operations: DMA loads of weight/activation tiles into the scratchpad,
//! MPU GEMM tiles, VPU vector tiles, and DMA stores of results. The executor
//! models double-buffered overlap between consecutive loads and computes.

use std::fmt;

use dscs_simcore::quantity::Bytes;

/// One tile-level instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// DMA transfer of `bytes` from drive DRAM into the scratchpad.
    LoadTile {
        /// Bytes transferred.
        bytes: u64,
    },
    /// DMA transfer of `bytes` from the scratchpad back to drive DRAM.
    StoreTile {
        /// Bytes transferred.
        bytes: u64,
    },
    /// A GEMM tile of size `m x k x n` executed on the MPU.
    GemmTile {
        /// Tile rows (mapped onto array rows over multiple passes).
        m: u64,
        /// Reduction depth.
        k: u64,
        /// Tile columns.
        n: u64,
    },
    /// A vector tile of `elements` values with `ops_per_element` arithmetic
    /// operations each, executed on the VPU.
    VectorTile {
        /// Number of elements processed.
        elements: u64,
        /// Arithmetic operations per element.
        ops_per_element: u64,
    },
    /// A barrier: all outstanding tiles must complete before execution
    /// continues. Emitted between layers that cannot be overlapped.
    Sync,
}

impl Instruction {
    /// Convenience constructor for a load.
    pub fn load_tile(bytes: u64) -> Self {
        Instruction::LoadTile { bytes }
    }

    /// Convenience constructor for a store.
    pub fn store_tile(bytes: u64) -> Self {
        Instruction::StoreTile { bytes }
    }

    /// Convenience constructor for a GEMM tile.
    pub fn gemm_tile(m: u64, k: u64, n: u64) -> Self {
        Instruction::GemmTile { m, k, n }
    }

    /// Convenience constructor for a vector tile.
    pub fn vector_tile(elements: u64, ops_per_element: u64) -> Self {
        Instruction::VectorTile {
            elements,
            ops_per_element,
        }
    }

    /// Bytes moved between DRAM and the scratchpad by this instruction.
    pub fn dma_bytes(&self) -> u64 {
        match *self {
            Instruction::LoadTile { bytes } | Instruction::StoreTile { bytes } => bytes,
            _ => 0,
        }
    }

    /// Arithmetic operations performed by this instruction (MACs count as two).
    pub fn ops(&self) -> u64 {
        match *self {
            Instruction::GemmTile { m, k, n } => 2 * m * k * n,
            Instruction::VectorTile {
                elements,
                ops_per_element,
            } => elements * ops_per_element,
            _ => 0,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::LoadTile { bytes } => write!(f, "load {bytes}B"),
            Instruction::StoreTile { bytes } => write!(f, "store {bytes}B"),
            Instruction::GemmTile { m, k, n } => write!(f, "gemm {m}x{k}x{n}"),
            Instruction::VectorTile {
                elements,
                ops_per_element,
            } => write!(f, "vec {elements}x{ops_per_element}"),
            Instruction::Sync => write!(f, "sync"),
        }
    }
}

/// A compiled program: an ordered instruction stream plus bookkeeping totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            instructions: Vec::new(),
        }
    }

    /// The program name (usually the model name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Total DMA traffic between drive DRAM and the scratchpad.
    pub fn total_dma_bytes(&self) -> Bytes {
        Bytes::new(self.instructions.iter().map(Instruction::dma_bytes).sum())
    }

    /// Total arithmetic operations.
    pub fn total_ops(&self) -> u64 {
        self.instructions.iter().map(Instruction::ops).sum()
    }

    /// Number of GEMM tiles (useful to sanity-check tiling decisions).
    pub fn gemm_tile_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::GemmTile { .. }))
            .count()
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_accounting() {
        assert_eq!(Instruction::load_tile(100).dma_bytes(), 100);
        assert_eq!(Instruction::store_tile(50).dma_bytes(), 50);
        assert_eq!(Instruction::gemm_tile(2, 3, 4).ops(), 48);
        assert_eq!(Instruction::vector_tile(10, 4).ops(), 40);
        assert_eq!(Instruction::Sync.ops(), 0);
        assert_eq!(Instruction::Sync.dma_bytes(), 0);
    }

    #[test]
    fn program_totals() {
        let mut p = Program::new("t");
        p.push(Instruction::load_tile(128));
        p.push(Instruction::gemm_tile(4, 4, 4));
        p.push(Instruction::vector_tile(16, 1));
        p.push(Instruction::store_tile(64));
        assert_eq!(p.total_dma_bytes().as_u64(), 192);
        assert_eq!(p.total_ops(), 2 * 64 + 16);
        assert_eq!(p.gemm_tile_count(), 1);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn program_extend_appends() {
        let mut p = Program::new("t");
        p.extend([Instruction::Sync, Instruction::Sync]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", Instruction::gemm_tile(1, 2, 3)), "gemm 1x2x3");
        assert_eq!(format!("{}", Instruction::load_tile(8)), "load 8B");
    }
}
