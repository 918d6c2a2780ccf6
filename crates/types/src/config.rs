//! System configuration (Table 2.1) and memory sizing.

use core::fmt;

use crate::{BLOCK_SIZE, CACHE_SIZE, PAGE_SIZE};

/// Main-memory size in megabytes.
///
/// The paper evaluates 5, 6, and 8 MB configurations for the synthetic
/// workloads, and observes 8/12/16 MB development machines in Table 3.5.
///
/// ```
/// use spur_types::MemSize;
///
/// assert_eq!(MemSize::MB5.frames(), 1280);
/// assert_eq!(MemSize::new(8).bytes(), 8 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemSize(u32);

impl MemSize {
    /// 5 MB, the smallest configuration in Tables 3.3/3.4/4.1.
    pub const MB5: MemSize = MemSize(5);
    /// 6 MB, the middle configuration.
    pub const MB6: MemSize = MemSize(6);
    /// 8 MB, the largest synthetic-workload configuration.
    pub const MB8: MemSize = MemSize(8);

    /// The three memory sizes used throughout the synthetic-workload
    /// experiments (Tables 3.3, 3.4 and 4.1).
    pub const STUDY_SIZES: [MemSize; 3] = [Self::MB5, Self::MB6, Self::MB8];

    /// Creates a memory size.
    ///
    /// # Panics
    ///
    /// Panics if `megabytes` is zero.
    pub const fn new(megabytes: u32) -> Self {
        assert!(megabytes > 0, "memory size must be positive");
        MemSize(megabytes)
    }

    /// Size in megabytes.
    pub const fn megabytes(self) -> u32 {
        self.0
    }

    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        self.0 as u64 * 1024 * 1024
    }

    /// Number of 4 KB page frames.
    pub const fn frames(self) -> u32 {
        (self.bytes() / PAGE_SIZE) as u32
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

/// The SPUR prototype configuration (Table 2.1) plus the simulator's
/// paging-cost knobs.
///
/// Construct with [`SystemConfig::prototype`] for the exact Table 2.1
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    cache_bytes: u64,
    block_bytes: u64,
    page_bytes: u64,
    instruction_buffer: bool,
    processor_cycle_ns: u32,
    backplane_cycle_ns: u32,
    mem_first_word_cycles: u32,
    mem_next_word_cycles: u32,
}

impl SystemConfig {
    /// The exact prototype configuration from Table 2.1.
    ///
    /// ```
    /// use spur_types::SystemConfig;
    ///
    /// let cfg = SystemConfig::prototype();
    /// assert_eq!(cfg.cache_bytes(), 128 * 1024);
    /// assert_eq!(cfg.processor_cycle_ns(), 150);
    /// assert!(!cfg.instruction_buffer());
    /// ```
    pub fn prototype() -> Self {
        SystemConfig {
            cache_bytes: CACHE_SIZE,
            block_bytes: BLOCK_SIZE,
            page_bytes: PAGE_SIZE,
            instruction_buffer: false,
            processor_cycle_ns: 150,
            backplane_cycle_ns: 125,
            mem_first_word_cycles: 3,
            mem_next_word_cycles: 1,
        }
    }

    /// Cache capacity in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Number of lines in the direct-mapped cache.
    pub fn cache_lines(&self) -> u64 {
        self.cache_bytes / self.block_bytes
    }

    /// Whether the CPU's instruction buffer is enabled (disabled on the
    /// measured prototype).
    pub fn instruction_buffer(&self) -> bool {
        self.instruction_buffer
    }

    /// Processor cycle time in nanoseconds (150 ns on the prototype).
    pub fn processor_cycle_ns(&self) -> u32 {
        self.processor_cycle_ns
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cache Size            {} Kbytes",
            self.cache_bytes / 1024
        )?;
        writeln!(f, "Associativity         Direct Mapped")?;
        writeln!(f, "Block Size            {} bytes", self.block_bytes)?;
        writeln!(f, "Page Size             {} Kbytes", self.page_bytes / 1024)?;
        writeln!(
            f,
            "Instruction Buffer    {}",
            if self.instruction_buffer {
                "Enabled"
            } else {
                "Disabled"
            }
        )?;
        writeln!(f, "Processor cycle time  {}ns", self.processor_cycle_ns)?;
        writeln!(f, "Backplane cycle time  {}ns", self.backplane_cycle_ns)?;
        writeln!(
            f,
            "Time to first word    {} cycles",
            self.mem_first_word_cycles
        )?;
        write!(
            f,
            "Time to next word     {} cycles",
            self.mem_next_word_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table_2_1() {
        let cfg = SystemConfig::prototype();
        assert_eq!(cfg.cache_bytes, 128 * 1024);
        assert_eq!(cfg.block_bytes, 32);
        assert_eq!(cfg.page_bytes, 4096);
        assert!(!cfg.instruction_buffer);
        assert_eq!(cfg.processor_cycle_ns, 150);
        assert_eq!(cfg.backplane_cycle_ns, 125);
        assert_eq!(cfg.mem_first_word_cycles, 3);
        assert_eq!(cfg.mem_next_word_cycles, 1);
    }

    #[test]
    fn mem_size_frame_counts() {
        assert_eq!(MemSize::MB5.frames(), 1280);
        assert_eq!(MemSize::MB6.frames(), 1536);
        assert_eq!(MemSize::MB8.frames(), 2048);
        assert_eq!(MemSize::new(12).frames(), 3072);
        assert_eq!(MemSize::new(16).frames(), 4096);
    }

    #[test]
    fn display_includes_table_rows() {
        let text = SystemConfig::prototype().to_string();
        assert!(text.contains("128 Kbytes"));
        assert!(text.contains("Direct Mapped"));
        assert!(text.contains("Disabled"));
        assert!(text.contains("150ns"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mem_size_panics() {
        let _ = MemSize::new(0);
    }
}
